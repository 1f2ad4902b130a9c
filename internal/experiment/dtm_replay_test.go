package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"cmppower/internal/dvfs"
	"cmppower/internal/obs"
)

// faultySweepDigest is the sha256 of faultySweepJSON's output. Under
// active fault injection the memo is off and the governor draws from the
// injector's sensor and DVFS streams, so a change to which runs are
// governed, or in what order, moves this digest.
const faultySweepDigest = "dbb2644b0ad1cbd9b8768c8b66c47112f3ccf5886b606a838daed74ff53a570d"

// faultySweepJSON runs a small Scenario I + II sweep on faultyTestRig and
// returns the outcomes as JSON.
func faultySweepJSON(t *testing.T) []byte {
	t.Helper()
	apps := testApps(t)[:2]
	counts := []int{1, 2, 4}
	cfg := SweepConfig{Workers: 2}
	i, err := faultyTestRig(t).SweepScenarioIWith(context.Background(), apps, counts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ii, err := faultyTestRig(t).SweepScenarioIIWith(context.Background(), apps, counts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(append(i, ii...))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFaultySweepDigestPinned pins the fault-injected DTM sweep bit for
// bit.
func TestFaultySweepDigestPinned(t *testing.T) {
	sum := sha256.Sum256(faultySweepJSON(t))
	if got := hex.EncodeToString(sum[:]); got != faultySweepDigest {
		t.Errorf("faulty DTM sweep digest = %s, want %s", got, faultySweepDigest)
	}
}

// tightBudget lowers the rig's Scenario II power budget so the budget
// binds from two cores up and the grid and guard-loop runs happen at the
// test's small scale. The budget reads only Cal.MaxOperationalW, so the
// runs themselves are unchanged.
func tightBudget(rig *Rig) *Rig {
	cal := *rig.Cal
	cal.MaxOperationalW = 2
	rig.Cal = &cal
	return rig
}

// dtmSweep runs Scenario I then Scenario II on one DTM rig with a
// registry, at the given worker count.
func dtmSweep(t *testing.T, workers int) (rig *Rig, i, ii []SweepOutcome) {
	t.Helper()
	rig = tightBudget(dtmTestRig(t))
	rig.Obs = obs.NewRegistry()
	cfg := SweepConfig{Workers: workers}
	var err error
	if i, err = rig.SweepScenarioIWith(context.Background(), testApps(t), []int{1, 2, 4}, cfg); err != nil {
		t.Fatal(err)
	}
	if ii, err = rig.SweepScenarioIIWith(context.Background(), testApps(t), []int{1, 2, 4}, cfg); err != nil {
		t.Fatal(err)
	}
	for _, o := range append(append([]SweepOutcome(nil), i...), ii...) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.App, o.Err)
		}
	}
	return rig, i, ii
}

// TestDTMSweepCountsMatchAcrossWorkers: which runs replay DTM must not
// depend on scheduling, so the memo traffic and the run and DTM counters
// are identical at every worker count.
func TestDTMSweepCountsMatchAcrossWorkers(t *testing.T) {
	names := []string{
		"engine_runs_total", "experiment_runs_total", "dtm_emergencies_total",
		"dtm_transitions_total", "dtm_failed_transitions_total", "dtm_floor_hits_total",
	}
	counts := func(workers int) (MemoStats, map[string]int64) {
		rig, _, _ := dtmSweep(t, workers)
		c := map[string]int64{"dtm_throttle_residency": rig.Obs.Histogram("dtm_throttle_residency", nil).Count()}
		for _, name := range names {
			c[name] = rig.Obs.Counter(name).Value()
		}
		return rig.MemoStats(), c
	}
	wantMemo, want := counts(1)
	for _, workers := range []int{2, 4} {
		memo, got := counts(workers)
		if memo != wantMemo {
			t.Errorf("workers=%d: MemoStats %+v, want %+v", workers, memo, wantMemo)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: counters %v, want %v", workers, got, want)
		}
	}
}

// TestDTMScenarioIIReusesBaseline: on a DTM rig Scenario II's N = 1 row
// is the baseline run itself, so a Scenario II of N = 1 alone simulates
// once.
func TestDTMScenarioIIReusesBaseline(t *testing.T) {
	rig := dtmTestRig(t)
	rig.Obs = obs.NewRegistry()
	res, err := rig.ScenarioII(app(t, "FFT"), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !res.Rows[0].AtNominal {
		t.Fatalf("rows %+v: the N = 1 row must run at nominal for this test", res.Rows)
	}
	if got := rig.Obs.Counter("engine_runs_total").Value(); got != 1 {
		t.Errorf("engine_runs_total = %d, want 1: the baseline alone", got)
	}
	if res.DTM == nil || res.DTM.Runs != 2 {
		t.Errorf("DTM summary %+v, want the baseline counted for itself and its row", res.DTM)
	}
}

// TestDTMSweepReportsMatchRunApp checks every measurement a DTM sweep
// reports against RunAppSeeded on a fresh rig without a memo, DTM stats
// included, and that the sweep simulated each run once: every engine run
// is a memo miss, so no reported run is simulated a second time.
func TestDTMSweepReportsMatchRunApp(t *testing.T) {
	rig, outI, outII := dtmSweep(t, 2)
	fresh := dtmTestRig(t)
	ctx := context.Background()
	runApp := func(name string, n int, p dvfs.OperatingPoint) *Measurement {
		t.Helper()
		m, err := fresh.RunAppSeeded(ctx, app(t, name), n, p, rig.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if m.DTM == nil {
			t.Fatalf("%s/%d: RunAppSeeded returned no DTM stats", name, n)
		}
		return m
	}
	check := func(got *Measurement) {
		t.Helper()
		if want := runApp(got.App, got.N, got.Point); !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%d at %v:\n got %+v (DTM %+v)\nwant %+v (DTM %+v)",
				got.App, got.N, got.Point, got, got.DTM, want, want.DTM)
		}
	}
	for _, o := range outI {
		check(o.I.Baseline)
		for _, row := range o.I.Rows {
			check(row.Scaled)
		}
	}
	binding := 0
	for _, o := range outII {
		// Scenario II rows keep only the chosen point's time and power; the
		// kept runs' DTM stats show in the scenario's summary.
		kept := []*Measurement{runApp(o.App, 1, fresh.Table.Nominal())}
		for _, row := range o.II.Rows {
			m := runApp(o.App, row.N, row.Point)
			if m.Seconds != row.Seconds || m.PowerW != row.PowerW {
				t.Errorf("%s/%d at %v: row %g s %g W, RunAppSeeded %g s %g W",
					o.App, row.N, row.Point, row.Seconds, row.PowerW, m.Seconds, m.PowerW)
			}
			if !row.AtNominal {
				binding++
			}
			kept = append(kept, m)
		}
		if want := summarizeDTM(kept); !reflect.DeepEqual(o.II.DTM, want) {
			t.Errorf("%s: Scenario II DTM summary %+v, want %+v", o.App, o.II.DTM, want)
		}
	}
	if binding == 0 {
		t.Fatal("no Scenario II row was budget-bound; the grid and guard runs went untested")
	}
	if got, want := rig.Obs.Counter("engine_runs_total").Value(), rig.MemoStats().Misses; got != want {
		t.Errorf("engine_runs_total = %d, want %d, one per memo miss", got, want)
	}
}

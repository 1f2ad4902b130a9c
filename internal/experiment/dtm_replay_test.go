package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"cmppower/internal/dvfs"
	"cmppower/internal/obs"
)

// faultySweepDigest is the sha256 of faultySweepJSON's output. Under
// active fault injection every run replays DTM eagerly, in run order,
// because the injector's sensor and DVFS streams make each replay
// observable; a change to which runs replay, or when, moves this digest.
const faultySweepDigest = "b43a5037de41839a28e1e16fc08355ff235cb2613e3eaf462cdd55b64c328657"

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

// TestDTMSweepReportsMatchRunApp checks every measurement a DTM sweep
// reports against RunAppSeeded on a fresh rig without a memo, DTM stats
// included, and that the sweep replayed DTM once per distinct reported
// run and for nothing else.
func TestDTMSweepReportsMatchRunApp(t *testing.T) {
	rig, outI, outII := dtmSweep(t, 2)
	fresh := dtmTestRig(t)
	ctx := context.Background()
	reported := make(map[memoKey]bool)
	runApp := func(name string, n int, p dvfs.OperatingPoint) *Measurement {
		t.Helper()
		m, err := fresh.RunAppSeeded(ctx, app(t, name), n, p, rig.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if m.DTM == nil {
			t.Fatalf("%s/%d: RunAppSeeded returned no DTM stats", name, n)
		}
		reported[rig.memoKeyFor(name, n, p, rig.Seed)] = true
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
	misses := rig.MemoStats().Misses
	if got, want := rig.Obs.Counter("engine_runs_total").Value(), misses+int64(len(reported)); got != want {
		t.Errorf("engine_runs_total = %d, want %d memo misses + %d reported DTM measurements",
			got, misses, len(reported))
	}
}

// TestMemoDTMSingleFlight: concurrent requests for one entry's DTM stats
// replay once and each get their own copy; a failed replay is not kept;
// a key without an entry replays uncached.
func TestMemoDTMSingleFlight(t *testing.T) {
	c := newMemoCache(0)
	k := memoKey{app: "FFT", n: 2}
	if _, err := c.do(context.Background(), k, nil, func() (*Measurement, error) {
		return &Measurement{App: "FFT", N: 2}, nil
	}); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var replays atomic.Int64
	started, gate := make(chan struct{}, callers), make(chan struct{})
	replay := func() (*DTMStats, error) {
		replays.Add(1)
		started <- struct{}{}
		<-gate
		return &DTMStats{Emergencies: 3}, nil
	}
	got := make([]*DTMStats, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.dtm(context.Background(), k, replay)
			if err != nil {
				t.Error(err)
			}
			got[i] = st
		}(i)
	}
	// Release the replay only once it runs, so callers launched above can
	// queue on its flight.
	<-started
	close(gate)
	wg.Wait()
	if n := replays.Load(); n != 1 {
		t.Errorf("%d replays for one entry, want 1", n)
	}
	for i, st := range got {
		if st == nil || st.Emergencies != 3 {
			t.Fatalf("caller %d got %+v", i, st)
		}
		if i > 0 && st == got[0] {
			t.Errorf("callers 0 and %d share one DTMStats", i)
		}
	}

	k2 := memoKey{app: "FFT", n: 4}
	if _, err := c.do(context.Background(), k2, nil, func() (*Measurement, error) {
		return &Measurement{App: "FFT", N: 4}, nil
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := c.dtm(context.Background(), k2, func() (*DTMStats, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed replay returned %v", err)
	}
	if st, err := c.dtm(context.Background(), k2, func() (*DTMStats, error) { return &DTMStats{}, nil }); err != nil || st == nil {
		t.Fatalf("replay after a failure: %+v, %v", st, err)
	}

	replays.Store(0)
	uncached := func() (*DTMStats, error) { replays.Add(1); return &DTMStats{}, nil }
	for i := 0; i < 2; i++ {
		if _, err := c.dtm(context.Background(), memoKey{app: "LU"}, uncached); err != nil {
			t.Fatal(err)
		}
	}
	if n := replays.Load(); n != 2 {
		t.Errorf("key without an entry replayed %d times in 2 requests, want 2", n)
	}
}

package experiment

import (
	"context"
	"testing"

	"cmppower/internal/obs"
	"cmppower/internal/splash"
)

// TestSweepPublishesMetrics sanity-checks that the registry actually saw
// the sweep: engine runs, memo traffic, and the volatile pool gauges.
func TestSweepPublishesMetrics(t *testing.T) {
	rig := testRig(t)
	rig.Obs = obs.NewRegistry()
	apps := []splash.App{app(t, "FFT"), app(t, "LU")}
	outcomes, err := rig.SweepScenarioIWith(context.Background(), apps, []int{1, 2},
		SweepConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.App, o.Err)
		}
	}
	runs := rig.Obs.Counter("engine_runs_total").Value()
	if runs == 0 {
		t.Fatal("no engine runs published")
	}
	if got := rig.Obs.Counter("experiment_runs_total").Value(); got != runs {
		t.Errorf("experiment_runs_total = %d, engine_runs_total = %d; want equal (no DTM replays here)", got, runs)
	}
	ms := rig.MemoStats()
	if got := rig.Obs.Counter("memo_misses_total").Value(); got != ms.Misses {
		t.Errorf("memo_misses_total = %d, MemoStats.Misses = %d", got, ms.Misses)
	}
	if got := rig.Obs.Counter("memo_hits_total").Value(); got != ms.Hits {
		t.Errorf("memo_hits_total = %d, MemoStats.Hits = %d", got, ms.Hits)
	}
	if got := rig.Obs.Counter("sweep_items_total").Value(); got != int64(len(apps)) {
		t.Errorf("sweep_items_total = %d, want %d", got, len(apps))
	}
	vol := rig.Obs.SnapshotVolatile()
	names := make(map[string]bool, len(vol))
	for _, m := range vol {
		names[m.Name] = true
	}
	for _, want := range []string{"sweep_pool_workers", "sweep_pool_busy_seconds", "sweep_pool_wall_seconds", "sweep_pool_utilization"} {
		if !names[want] {
			t.Errorf("volatile snapshot missing %s (have %v)", want, names)
		}
	}
	// And none of the pool gauges may leak into the deterministic snapshot.
	for _, m := range rig.Obs.Snapshot() {
		if names[m.Name] {
			t.Errorf("volatile metric %s leaked into deterministic snapshot", m.Name)
		}
	}
}

// TestDTMMetricsPublished: a rig with DTM and fault injection publishes
// the controller counters, consistent with the per-measurement stats.
func TestDTMMetricsPublished(t *testing.T) {
	rig := faultyTestRig(t)
	rig.Obs = obs.NewRegistry()
	m, err := rig.RunApp(app(t, "Ocean"), 4, rig.Table.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if m.DTM == nil {
		t.Fatal("no DTM stats on measurement")
	}
	pairs := []struct {
		name string
		want int
	}{
		{"dtm_emergencies_total", m.DTM.Emergencies},
		{"dtm_transitions_total", m.DTM.Transitions},
		{"dtm_failed_transitions_total", m.DTM.FailedTransitions},
	}
	for _, p := range pairs {
		if got := rig.Obs.Counter(p.name).Value(); got != int64(p.want) {
			t.Errorf("%s = %d, want %d", p.name, got, p.want)
		}
	}
	if got := rig.Obs.Histogram("dtm_throttle_residency", nil).Count(); got != 1 {
		t.Errorf("dtm_throttle_residency count = %d, want 1 run", got)
	}
}

// TestScenarioIIModeledSeconds pins the new Seconds carriers: the summed
// modeled time must reproduce the speedups already reported.
func TestScenarioIIModeledSeconds(t *testing.T) {
	rig := testRig(t)
	res, err := rig.ScenarioII(app(t, "FFT"), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineSeconds <= 0 {
		t.Fatalf("BaselineSeconds = %g", res.BaselineSeconds)
	}
	total := res.BaselineSeconds
	for _, row := range res.Rows {
		if row.Seconds <= 0 {
			t.Fatalf("row N=%d Seconds = %g", row.N, row.Seconds)
		}
		if speedup := res.BaselineSeconds / row.Seconds; !approxEqual(speedup, row.ActualSpeedup) {
			t.Errorf("N=%d: Seconds implies speedup %g, row says %g", row.N, speedup, row.ActualSpeedup)
		}
		total += row.Seconds
	}
	if got := res.ModeledSeconds(); !approxEqual(got, total) {
		t.Errorf("ModeledSeconds = %g, want %g", got, total)
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return d <= 1e-9*scale
}

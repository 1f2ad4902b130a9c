package experiment

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cmppower/internal/faults"
	"cmppower/internal/splash"
)

// faultyTestRig returns a rig with a moderately noisy fault injector and
// the DTM controller attached — the worst case for parallel determinism,
// since both carry per-run state.
func faultyTestRig(t *testing.T) *Rig {
	t.Helper()
	rig := testRig(t)
	rig.Seed = 11
	inj, err := faults.New(faults.Config{
		Seed: 11, SensorNoiseSigmaC: 1.5, DVFSFailProb: 0.05, CacheTransientProb: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Faults = inj
	dtm := DefaultDTMConfig()
	rig.DTM = &dtm
	return rig
}

// dtmTestRig returns a rig with the DTM controller attached and no fault
// injection, where only the measurements a scenario reports replay DTM.
func dtmTestRig(t *testing.T) *Rig {
	t.Helper()
	rig := testRig(t)
	dtm := DefaultDTMConfig()
	rig.DTM = &dtm
	return rig
}

func testApps(t *testing.T) []splash.App {
	t.Helper()
	return []splash.App{app(t, "FFT"), app(t, "LU"), app(t, "Radix"), app(t, "Ocean")}
}

// outcomesEqual compares sweeps structurally; errors are compared by
// message since error values don't round-trip through DeepEqual reliably.
func outcomesEqual(t *testing.T, a, b []SweepOutcome) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.App != y.App || x.Attempts != y.Attempts {
			t.Errorf("outcome %d header differs: %s/%d vs %s/%d", i, x.App, x.Attempts, y.App, y.Attempts)
		}
		if (x.Err == nil) != (y.Err == nil) {
			t.Errorf("outcome %d error presence differs: %v vs %v", i, x.Err, y.Err)
		} else if x.Err != nil && x.Err.Error() != y.Err.Error() {
			t.Errorf("outcome %d errors differ:\n  %v\n  %v", i, x.Err, y.Err)
		}
		if !reflect.DeepEqual(x.I, y.I) {
			t.Errorf("outcome %d ScenarioI results differ:\n  %+v\n  %+v", i, x.I, y.I)
		}
		if !reflect.DeepEqual(x.II, y.II) {
			t.Errorf("outcome %d ScenarioII results differ:\n  %+v\n  %+v", i, x.II, y.II)
		}
	}
}

// TestParallelSweepMatchesSerial is the engine's central guarantee: the
// same sweep at every worker count yields bit-identical outcomes, clean,
// with DTM, or under fault injection with DTM. Running it under -race also
// exercises the clone/memo paths for data races.
func TestParallelSweepMatchesSerial(t *testing.T) {
	counts := []int{1, 2, 4}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *Rig
	}{
		{"clean", testRig},
		{"dtm", dtmTestRig},
		{"faults+dtm", faultyTestRig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int, scenarioII bool) []SweepOutcome {
				rig := tc.build(t)
				cfg := SweepConfig{Workers: workers}
				var outs []SweepOutcome
				var err error
				if scenarioII {
					outs, err = rig.SweepScenarioIIWith(context.Background(), testApps(t), counts, cfg)
				} else {
					outs, err = rig.SweepScenarioIWith(context.Background(), testApps(t), counts, cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				return outs
			}
			for _, scenarioII := range []bool{false, true} {
				serial := run(1, scenarioII)
				for _, j := range []int{2, 4, 8} {
					outcomesEqual(t, serial, run(j, scenarioII))
				}
			}
		})
	}
}

// TestMemoDedupesRepeatedRuns verifies the cache actually absorbs the
// repeated baseline/profiling runs across Scenario I and II on one rig,
// and that served hits don't change results.
func TestMemoDedupesRepeatedRuns(t *testing.T) {
	apps := testApps(t)[:2]
	counts := []int{1, 2}

	rig := testRig(t)
	if _, err := rig.SweepScenarioIWith(context.Background(), apps, counts, SweepConfig{}); err != nil {
		t.Fatal(err)
	}
	afterI := rig.MemoStats()
	if afterI.Misses == 0 || afterI.Entries == 0 {
		t.Fatalf("memo saw no traffic after Scenario I: %+v", afterI)
	}
	// Scenario II on the same rig re-profiles every app at nominal — those
	// runs must come from the cache.
	if _, err := rig.SweepScenarioIIWith(context.Background(), apps, counts, SweepConfig{}); err != nil {
		t.Fatal(err)
	}
	afterII := rig.MemoStats()
	if afterII.Hits <= afterI.Hits {
		t.Fatalf("Scenario II after Scenario I produced no memo hits: %+v -> %+v", afterI, afterII)
	}

	// The memoized Scenario II must match a cold NoMemo run exactly.
	cold, err := testRig(t).SweepScenarioIIWith(context.Background(), apps, counts,
		SweepConfig{Workers: 1, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := testRig(t).SweepScenarioIIWith(context.Background(), apps, counts, SweepConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	outcomesEqual(t, cold, warm)
}

// TestMemoDisabledUnderActiveFaults: with injection enabled runs are
// order-dependent (each advances the injector streams), so they must
// never be served from cache.
func TestMemoDisabledUnderActiveFaults(t *testing.T) {
	rig := faultyTestRig(t)
	if rig.memoizable() {
		t.Fatal("rig with active injector reported memoizable")
	}
	if _, err := rig.SweepScenarioIWith(context.Background(), testApps(t)[:2], []int{1, 2}, SweepConfig{}); err != nil {
		t.Fatal(err)
	}
	if st := rig.MemoStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("faulty sweep used the memo cache: %+v", st)
	}
	// A zero-rate injector is memoizable: it cannot perturb anything.
	clean := testRig(t)
	inj, err := faults.New(faults.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	clean.Faults = inj
	if !clean.memoizable() {
		t.Fatal("zero-rate injector blocked memoization")
	}
}

// TestParallelSweepCancellation: cancelling mid-sweep must return a
// prefix of the input apps and ctx's error.
func TestParallelSweepCancellation(t *testing.T) {
	rig := testRig(t)
	apps := testApps(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, err := rig.SweepScenarioIWith(ctx, apps, []int{1, 2}, SweepConfig{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
	if len(outs) > len(apps) {
		t.Fatalf("%d outcomes from %d apps", len(outs), len(apps))
	}
	for i, o := range outs {
		if o.App != apps[i].Name {
			t.Fatalf("outcome %d is %s, want prefix order %s", i, o.App, apps[i].Name)
		}
	}
}

// TestAttemptJoinsCancellationWithTransient pins satellite fix 1: when
// cancellation lands during a backoff wait, the returned error must keep
// both the context error (for errors.Is) and the transient *RunError
// provenance (for errors.As).
func TestAttemptJoinsCancellationWithTransient(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	transient := &RunError{
		App: "FFT", N: 4, Seed: 7, Step: "simulate",
		Err: &faults.TransientError{App: "FFT", N: 4, Seq: 1},
	}
	attempts, err := attempt(ctx, RetryConfig{Attempts: 3, Backoff: time.Hour, MaxBackoff: time.Hour},
		func() error {
			cancel() // cancel before the backoff wait begins
			return transient
		})
	if attempts != 1 {
		t.Fatalf("made %d attempts, want 1", attempts)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(context.Canceled) lost: %v", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("*RunError provenance lost: %v", err)
	}
	if re.App != "FFT" || re.Seed != 7 || re.Step != "simulate" {
		t.Errorf("wrong provenance: %+v", re)
	}
	if !faults.IsTransient(err) {
		t.Errorf("transient marker lost: %v", err)
	}
}

// TestSeedStudyDoesNotMutateRigSeed pins satellite fix 2: SeedStudy
// threads seeds through per-run parameters instead of mutating the
// shared rig.
func TestSeedStudyDoesNotMutateRigSeed(t *testing.T) {
	rig := testRig(t)
	rig.Seed = 42
	if _, err := rig.SeedStudy(app(t, "FFT"), 2, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if rig.Seed != 42 {
		t.Fatalf("SeedStudy mutated rig seed to %d", rig.Seed)
	}
}

// TestRigCloneIsolation: clones share the immutable substrates and the
// memo cache but must not share fault-injector streams or DTM state.
func TestRigCloneIsolation(t *testing.T) {
	rig := faultyTestRig(t)
	rig.EnableMemo()
	c := rig.Clone()
	if c.Faults == rig.Faults {
		t.Error("clone shares the fault injector")
	}
	if c.DTM == rig.DTM {
		t.Error("clone shares the DTM config pointer")
	}
	if c.memo != rig.memo {
		t.Error("clone does not share the memo cache")
	}
	if c.Meter != rig.Meter || c.TM != rig.TM || c.Table != rig.Table {
		t.Error("clone copied an immutable substrate")
	}
	// Same salt twice must yield identical fork streams; draining one
	// must not advance the other.
	a, b := rig.cloneFor("x").Faults, rig.cloneFor("x").Faults
	for i := 0; i < 64; i++ {
		a.ReadSensor(i%16, 70)
	}
	for i := 0; i < 64; i++ {
		b.ReadSensor(i%16, 70)
	}
	if a.Digest() != b.Digest() {
		t.Error("equal-salt forks diverged")
	}
}

// TestRunIndexedOrderAndBounds: every index runs exactly once for any
// worker count, including workers > n and n == 0.
func TestRunIndexedOrderAndBounds(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 10
		hits := make([]int, n)
		if err := RunIndexed(context.Background(), workers, n, func(i int) { hits[i]++ }); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	if err := RunIndexed(context.Background(), 4, 0, func(int) { t.Fatal("ran") }); err != nil {
		t.Fatal(err)
	}
	// A pre-cancelled context dispatches nothing, even with workers
	// already waiting on the dispatch channel. The race is a coin flip
	// per call, so repeat it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3, 16} {
		var ran atomic.Int64
		for rep := 0; rep < 1000; rep++ {
			if err := RunIndexed(ctx, workers, 10, func(int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err %v, want context.Canceled", workers, err)
			}
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("workers=%d: pre-cancelled context ran %d items", workers, n)
		}
	}
}

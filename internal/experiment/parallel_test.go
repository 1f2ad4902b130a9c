package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cmppower/internal/faults"
	"cmppower/internal/obs"
	"cmppower/internal/scenario"
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

// schedulerRig is one rig the scheduler tests sweep, with its apps.
type schedulerRig struct {
	name  string
	build func(t *testing.T) *Rig
	apps  []splash.App
}

// schedulerRigs are the rigs the scheduler tests sweep, at scale 0.05:
// the baseline chip with testApps, and the big/little chip with DTM and
// Fig. 4's apps. Both bind the Scenario II budget so its grid and guard
// runs happen.
func schedulerRigs(t *testing.T) []schedulerRig {
	t.Helper()
	biglittle, err := scenario.LoadFile("../../examples/scenarios/biglittle.json")
	if err != nil {
		t.Fatal(err)
	}
	rig := func(t *testing.T, sc *scenario.Scenario) *Rig {
		r, err := NewRigFromScenario(sc, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return tightBudget(r)
	}
	return []schedulerRig{
		{"baseline", func(t *testing.T) *Rig { return rig(t, nil) }, testApps(t)},
		{"biglittle+dtm", func(t *testing.T) *Rig {
			r := rig(t, biglittle)
			dtm := DefaultDTMConfig()
			r.DTM = &dtm
			return r
		}, []splash.App{app(t, "Cholesky"), app(t, "FMM"), app(t, "Radix")}},
	}
}

// TestSweepSchedulerDeterminism: with rows running concurrently, the
// outcomes (as JSON), the memo traffic and the registry's deterministic
// snapshot of a Scenario I then Scenario II sweep are identical at every
// worker count.
func TestSweepSchedulerDeterminism(t *testing.T) {
	counts := []int{1, 2, 4, 8}
	for _, tc := range schedulerRigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			type result struct {
				outcomes     []byte
				hits, misses int64
				snapshot     []obs.Metric
			}
			run := func(workers int) result {
				rig := tc.build(t)
				rig.Obs = obs.NewRegistry()
				cfg := SweepConfig{Workers: workers}
				i, err := rig.SweepScenarioIWith(context.Background(), tc.apps, counts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ii, err := rig.SweepScenarioIIWith(context.Background(), tc.apps, counts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range append(i, ii...) {
					if o.Err != nil {
						t.Fatalf("workers=%d: %s: %v", workers, o.App, o.Err)
					}
				}
				b, err := json.Marshal(append(i, ii...))
				if err != nil {
					t.Fatal(err)
				}
				ms := rig.MemoStats()
				return result{b, ms.Hits, ms.Misses, rig.Obs.Snapshot()}
			}
			want := run(1)
			for _, workers := range []int{2, 3, 8} {
				got := run(workers)
				if !bytes.Equal(got.outcomes, want.outcomes) {
					t.Errorf("workers=%d: outcomes differ from workers=1", workers)
				}
				if got.hits != want.hits || got.misses != want.misses {
					t.Errorf("workers=%d: memo %d hits %d misses, want %d and %d",
						workers, got.hits, got.misses, want.hits, want.misses)
				}
				if !reflect.DeepEqual(got.snapshot, want.snapshot) {
					t.Errorf("workers=%d: deterministic snapshot differs:\n got %+v\nwant %+v", workers, got.snapshot, want.snapshot)
				}
			}
		})
	}
}

// sweepIISlots runs a Scenario II sweep through sweepApps, as
// SweepScenarioIIWith does, and also returns the sweep's slot pool.
func sweepIISlots(ctx context.Context, rig *Rig, apps []splash.App, counts []int, workers int) ([]SweepOutcome, *simSlots, error) {
	var slots atomic.Pointer[simSlots]
	outs, err := rig.sweepApps(ctx, "scenarioII", apps, SweepConfig{Workers: workers},
		func(w *Rig, app splash.App, rc RetryConfig) SweepOutcome {
			slots.Store(w.slots)
			o := SweepOutcome{App: app.Name}
			o.Attempts, o.Err = attempt(ctx, rc, func() error {
				res, err := w.ScenarioIICtx(ctx, app, counts)
				o.II = res
				return err
			})
			return o
		})
	return outs, slots.Load(), err
}

// TestSweepSlotsBoundSimulations: no more than Workers simulations ever
// hold a slot at once, while apps and rows all start together, and with
// two or more slots the simulations do overlap.
func TestSweepSlotsBoundSimulations(t *testing.T) {
	for _, tc := range schedulerRigs(t) {
		for _, workers := range []int{1, 2, 3} {
			outs, slots, err := sweepIISlots(context.Background(), tc.build(t), tc.apps, []int{1, 2, 4}, workers)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				if o.Err != nil {
					t.Fatalf("%s: %v", o.App, o.Err)
				}
			}
			peak := slots.peak.Load()
			if peak < 1 || peak > int64(workers) {
				t.Errorf("%s, workers=%d: %d simulations held slots at once", tc.name, workers, peak)
			}
			if workers >= 2 && peak < 2 {
				t.Errorf("%s, workers=%d: simulations never overlapped", tc.name, workers)
			}
			if held := slots.held.Load(); held != 0 {
				t.Errorf("%s, workers=%d: %d slots still held after the sweep", tc.name, workers, held)
			}
		}
	}
}

// TestSweepRowsBoundsStartedRows: a core-count list longer than
// maxStarted starts maxStarted rows at once, the rest as rows finish,
// and still returns every row in input order.
func TestSweepRowsBoundsStartedRows(t *testing.T) {
	w := testRig(t).cloneFor("rows")
	w.slots = &simSlots{ch: make(chan struct{}, 1)}
	n := 3 * maxStarted
	var running, peak atomic.Int64
	release := make(chan struct{})
	done := make(chan struct{})
	var rows []int
	var err error
	go func() {
		defer close(done)
		rows, err = sweepRows(context.Background(), w, n, func(i int) (int, error) {
			h := running.Add(1)
			for p := peak.Load(); h > p; p = peak.Load() {
				if peak.CompareAndSwap(p, h) {
					break
				}
			}
			<-release
			running.Add(-1)
			return i, nil
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for running.Load() < maxStarted && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != maxStarted {
		t.Errorf("%d rows ran at once, want %d", got, maxStarted)
	}
	for i, r := range rows {
		if r != i {
			t.Fatalf("row %d holds %d: rows out of input order", i, r)
		}
	}
	if len(rows) != n {
		t.Errorf("%d rows returned, want %d", len(rows), n)
	}
}

// TestSweepCancelWhileRowsWait: a sweep cancelled while rows wait for its
// one slot returns promptly with context.Canceled, its outcomes an
// input-order prefix, and leaves no goroutine behind.
func TestSweepCancelWhileRowsWait(t *testing.T) {
	rig := testRig(t)
	rig.Obs = obs.NewRegistry()
	apps := testApps(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan time.Time, 1)
	go func() {
		// Once two runs have finished, at least one app's rows exist, and
		// with one slot all but one simulation are waiting for it.
		for rig.Obs.Counter("experiment_runs_total").Value() < 2 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
		cancelled <- time.Now()
	}()
	outs, err := rig.SweepScenarioIWith(ctx, apps, []int{1, 2, 4, 8, 16}, SweepConfig{Workers: 1})
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
	if d := returned.Sub(<-cancelled); d > 2*time.Second {
		t.Errorf("sweep returned %v after cancellation", d)
	}
	if len(outs) > len(apps) {
		t.Fatalf("%d outcomes from %d apps", len(outs), len(apps))
	}
	for i, o := range outs {
		if o.App != apps[i].Name {
			t.Fatalf("outcome %d is %s, want prefix order %s", i, o.App, apps[i].Name)
		}
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the sweep, %d before", n, before)
	}
}

// TestRowPanicIsAppPanicError: a panic in a row goroutine, outside
// runApp's own recovery, surfaces as that app's *PanicError while the
// other apps complete. The panic is forced by a memo entry for FFT's
// N = 2 profiling run that completed without a measurement, so the row's
// memo join dereferences nil.
func TestRowPanicIsAppPanicError(t *testing.T) {
	rig := testRig(t)
	rig.EnableMemo()
	k := rig.memoKeyFor("FFT", 2, rig.Table.Nominal(), rig.Seed, nil)
	ready := make(chan struct{})
	close(ready)
	rig.memo.m[k] = &memoEntry{key: k, ready: ready}
	apps := testApps(t)[:2]
	outs, err := rig.SweepScenarioIWith(context.Background(), apps, []int{1, 2, 4}, SweepConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if !errors.As(outs[0].Err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("%s: got %v, want a *PanicError with its stack", outs[0].App, outs[0].Err)
	}
	if outs[0].I != nil {
		t.Errorf("%s: a failed scenario reported a result", outs[0].App)
	}
	if outs[1].Err != nil || outs[1].I == nil {
		t.Errorf("%s: got %v, want a completed scenario", outs[1].App, outs[1].Err)
	}
}

package experiment

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cmppower/internal/splash"
	"cmppower/internal/thermal"
)

// SweepConfig configures a fault-isolated scenario sweep. The zero value
// gives the defaults: GOMAXPROCS simulations in flight, the standard
// retry policy, and run memoization on.
type SweepConfig struct {
	// Retry bounds the per-app retry loop for injected-transient failures.
	Retry RetryConfig
	// Workers bounds the simulations the sweep has in flight; <= 0 means
	// GOMAXPROCS. The sweep's outcomes are bit-identical for every worker
	// count: every app runs on its own rig clone with an independently
	// seeded fault stream, apps and each app's rows are gathered back in
	// input order, runs without active fault injection are pure functions
	// of their memo key, and under active injection each app's rows keep
	// their order.
	Workers int
	// NoMemo disables the measurement memo cache for this sweep, forcing
	// every baseline/profiling run to re-simulate.
	NoMemo bool
}

// workersOrDefault resolves the worker count.
func (c SweepConfig) workersOrDefault() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// RunIndexed runs fn(i) for every i in [0, n) across a bounded pool of
// workers (<= 0 means GOMAXPROCS). Indices are dispatched in order;
// cancellation stops further dispatch, so the completed indices always
// form a prefix of the input once RunIndexed returns, and a context
// cancelled before the call dispatches nothing. It returns ctx's
// error, nil when every index ran to completion with the context still
// live. fn must be safe for concurrent calls on distinct indices.
func RunIndexed(ctx context.Context, workers, n int, fn func(int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		// With a worker already waiting, both select cases below are
		// ready and Go picks one at random, so a context cancelled before
		// this send must be caught here or it may still dispatch i.
		if ctx.Err() != nil {
			break
		}
		select {
		case <-ctx.Done():
			break dispatch
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	return ctx.Err()
}

// simSlots is a sweep's pool: Workers slots shared by every app clone
// of the sweep (Rig.slots), one held around each simulation. It sums the
// time slots are held, and peak is the high-water mark of slots held at
// once, which tests read.
type simSlots struct {
	ch     chan struct{}
	busyNs atomic.Int64
	held   atomic.Int64
	peak   atomic.Int64
}

// acquire waits under ctx for a slot and returns its release. A nil pool,
// a rig outside any sweep, returns at once.
func (s *simSlots) acquire(ctx context.Context) (release func(), err error) {
	if s == nil {
		return func() {}, nil
	}
	// With a slot free both select cases below may be ready, and Go picks
	// one at random, so a run cancelled before it asks must be caught here
	// or it may still take a slot.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case s.ch <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	h := s.held.Add(1)
	for p := s.peak.Load(); h > p; p = s.peak.Load() {
		if s.peak.CompareAndSwap(p, h) {
			break
		}
	}
	t0 := time.Now()
	return func() {
		s.busyNs.Add(time.Since(t0).Nanoseconds())
		s.held.Add(-1)
		<-s.ch
	}, nil
}

// maxStarted bounds the apps a sweep with pure runs starts at once, and
// the rows each of its apps starts at once. The slots bound the
// simulations; this bounds the goroutines waiting for them, since the
// app and core-count lists are inputs (a /v1/sweep body may list 10⁵ of
// either). 64 exceeds the 12 SPLASH-2 apps and any core-count axis in
// use, so those all start together.
const maxStarted = 64

// sweepRows runs row(i) for every i in [0, n) and returns the rows in
// input order, or the error of the lowest-indexed failing row. On an app
// clone of a sweep whose runs are pure (no active fault injection) the
// rows run at once, up to maxStarted, each simulation holding one of the
// sweep's slots, and every row is waited for; a panic in a row becomes a
// *PanicError here, since the sweep's own recovery runs on another
// goroutine. Otherwise (outside a sweep, or under active injection, whose
// streams advance with every run so rows must keep their order) they run
// one after another and stop at the first failure. Zero rows give a nil
// slice.
func sweepRows[T any](ctx context.Context, r *Rig, n int, row func(i int) (T, error)) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	out := make([]T, n)
	if r.slots == nil || !r.memoizable() {
		for i := range out {
			var err error
			if out[i], err = row(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, n)
	// Every row is dispatched, even once ctx is done, when each fails at
	// its first run, so the lowest-indexed failing row is well defined
	// and the dispatcher itself cannot fail.
	_ = RunIndexed(context.WithoutCancel(ctx), maxStarted, n, func(i int) {
		errs[i] = protect(func() (err error) {
			out[i], err = row(i)
			return err
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweepApps is the engine behind SweepScenarioIWith/IIWith: it runs every
// app on its own clone of r, the clones sharing one pool of cfg.Workers
// simulation slots, and merges outcomes back in input order. Each
// clone's fault streams are salted by (kind, app), deterministic in the
// fault seed alone. When runs are pure every app starts at once (up to
// maxStarted) and the slots alone bound the work in flight; under active
// injection an app's rows run in order, one simulation at a time, so the
// apps are dispatched cfg.Workers at a time. The merged outcomes are
// identical for every worker count. On cancellation the outcomes
// gathered so far (a prefix of apps, the last ones possibly carrying the
// cancellation as their Err) are returned with ctx's error.
func (r *Rig) sweepApps(ctx context.Context, kind string, apps []splash.App, cfg SweepConfig, run func(*Rig, splash.App, RetryConfig) SweepOutcome) ([]SweepOutcome, error) {
	rc := cfg.Retry.withDefaults()
	if !cfg.NoMemo {
		r.EnableMemo()
	}
	workers := cfg.workersOrDefault()
	slots := &simSlots{ch: make(chan struct{}, workers)}
	appWorkers := workers
	if r.memoizable() {
		appWorkers = maxStarted
	}
	results := make([]*SweepOutcome, len(apps))
	start := time.Now()
	err := RunIndexed(ctx, appWorkers, len(apps), func(i int) {
		w := r.cloneFor(kind + "/" + apps[i].Name)
		w.slots = slots
		o := run(w, apps[i], rc)
		results[i] = &o
	})
	out := make([]SweepOutcome, 0, len(apps))
	for _, o := range results {
		if o == nil {
			break // never dispatched: cancellation landed first
		}
		out = append(out, *o)
	}
	if r.Obs != nil {
		// Pool utilization is wall-clock truth, not simulation state, so it
		// is volatile by construction: the values differ run to run and
		// worker count to worker count, and must stay out of the
		// deterministic snapshot that manifests digest. Busy time is the
		// time slots were held, so utilization lies in [0, 1].
		r.Obs.Counter("sweep_items_total").Add(int64(len(out)))
		wall := time.Since(start).Seconds()
		busy := float64(slots.busyNs.Load()) / 1e9
		r.Obs.VolatileGauge("sweep_pool_workers").Set(float64(workers))
		r.Obs.VolatileGauge("sweep_pool_busy_seconds").Set(busy)
		r.Obs.VolatileGauge("sweep_pool_wall_seconds").Set(wall)
		if denom := wall * float64(workers); denom > 0 {
			r.Obs.VolatileGauge("sweep_pool_utilization").Set(busy / denom)
		}
		// Factorization reuse is process-cumulative (the pool outlives any
		// one sweep) and its hit/miss split depends on construction order
		// across goroutines, so it is volatile like the pool gauges above.
		facHits, _ := thermal.FactorStats()
		r.Obs.VolatileGauge("thermal_factor_reuse").Set(float64(facHits))
	}
	return out, err
}

// SweepScenarioIWith runs ScenarioI for every app, isolating failures: a
// run that panics or fails hard is reported in its outcome's Err (as a
// *RunError where provenance is known) while the remaining apps still
// run; injected-transient failures are retried per cfg.Retry. Only
// context cancellation stops the sweep early, returning the outcomes
// gathered so far alongside ctx.Err(). The apps and their rows share a
// pool of cfg.Workers simulation slots, each app drawing its own
// (scenario, app)-salted fault stream, and the memo cache dedupes
// repeated baseline/profiling runs. Outcomes are returned in input order
// and are bit-identical for every worker count.
func (r *Rig) SweepScenarioIWith(ctx context.Context, apps []splash.App, coreCounts []int, cfg SweepConfig) ([]SweepOutcome, error) {
	return r.sweepApps(ctx, "scenarioI", apps, cfg, func(w *Rig, app splash.App, rc RetryConfig) SweepOutcome {
		o := SweepOutcome{App: app.Name}
		o.Attempts, o.Err = attempt(ctx, rc, func() error {
			res, err := w.ScenarioICtx(ctx, app, coreCounts)
			o.I = res
			return err
		})
		return o
	})
}

// SweepScenarioIIWith is SweepScenarioIWith for the Scenario II
// (power-budget) experiment.
func (r *Rig) SweepScenarioIIWith(ctx context.Context, apps []splash.App, coreCounts []int, cfg SweepConfig) ([]SweepOutcome, error) {
	return r.sweepApps(ctx, "scenarioII", apps, cfg, func(w *Rig, app splash.App, rc RetryConfig) SweepOutcome {
		o := SweepOutcome{App: app.Name}
		o.Attempts, o.Err = attempt(ctx, rc, func() error {
			res, err := w.ScenarioIICtx(ctx, app, coreCounts)
			o.II = res
			return err
		})
		return o
	})
}

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
// gives the defaults: a GOMAXPROCS-sized worker pool, the standard retry
// policy, and run memoization on.
type SweepConfig struct {
	// Retry bounds the per-app retry loop for injected-transient failures.
	Retry RetryConfig
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS. The sweep's
	// outcomes are bit-identical for every worker count: work items are
	// dispatched and merged in input order, every item runs on its own rig
	// clone with an independently seeded fault stream, and memoized runs
	// are pure functions of their key.
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

// sweepApps is the engine behind SweepScenarioIWith/IIWith: it fans one
// work item per app out across the pool and merges outcomes back in input
// order. Every item runs on its own clone of r whose fault streams are
// salted by (kind, app) — deterministic in the fault seed alone, so the
// merged outcomes are identical for every worker count. On cancellation
// the outcomes gathered so far (a prefix of apps, the last possibly
// carrying the cancellation as its Err) are returned with ctx's error.
func (r *Rig) sweepApps(ctx context.Context, kind string, apps []splash.App, cfg SweepConfig, run func(*Rig, splash.App, RetryConfig) SweepOutcome) ([]SweepOutcome, error) {
	rc := cfg.Retry.withDefaults()
	if !cfg.NoMemo {
		r.EnableMemo()
	}
	workers := cfg.workersOrDefault()
	results := make([]*SweepOutcome, len(apps))
	var busyNs atomic.Int64
	start := time.Now()
	err := RunIndexed(ctx, workers, len(apps), func(i int) {
		t0 := time.Now()
		o := run(r.cloneFor(kind+"/"+apps[i].Name), apps[i], rc)
		busyNs.Add(time.Since(t0).Nanoseconds())
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
		// deterministic snapshot that manifests digest.
		r.Obs.Counter("sweep_items_total").Add(int64(len(out)))
		wall := time.Since(start).Seconds()
		busy := float64(busyNs.Load()) / 1e9
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

// SweepScenarioIWith is SweepScenarioI under a SweepConfig: the apps fan
// out across a bounded worker pool and the memo cache dedupes repeated
// baseline/profiling runs. Outcomes are returned in input order and are
// bit-identical for every worker count.
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

// SweepScenarioIIWith is SweepScenarioII under a SweepConfig; see
// SweepScenarioIWith.
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

// Package experiment implements the paper's experimental methodology (§4)
// on top of the simulator stack: off-line profiling at nominal
// voltage/frequency, Eq. 7 target-frequency computation for Scenario I,
// and the profile-guided budget search of Scenario II, each followed by a
// re-simulation at the chosen operating point with full power/thermal
// evaluation.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"cmppower/internal/cmp"
	"cmppower/internal/dvfs"
	"cmppower/internal/faults"
	"cmppower/internal/floorplan"
	"cmppower/internal/obs"
	"cmppower/internal/phys"
	"cmppower/internal/power"
	"cmppower/internal/scenario"
	"cmppower/internal/splash"
	"cmppower/internal/stats"
	"cmppower/internal/surrogate"
	"cmppower/internal/thermal"
)

// Rig bundles the experimental apparatus: the Table 1 chip, its thermal
// model, the calibrated power meter, and the DVFS ladder.
type Rig struct {
	Tech       phys.Technology
	Table      *dvfs.Table
	FP         *floorplan.Floorplan
	TM         *thermal.Model
	Meter      *power.Meter
	Cal        *power.Calibration
	TotalCores int
	// Scale is the workload scale factor passed to the application models.
	Scale float64
	// Seed drives workload randomness.
	Seed uint64
	// ScaleMemoryWithChip switches the simulator to system-wide DVFS
	// (the analytical model's assumption) for ablation A3.
	ScaleMemoryWithChip bool
	// Prefetch enables the hierarchy's next-line prefetcher (ablation A6).
	Prefetch bool
	// QuantizeLadder restricts operating points to the discrete 200 MHz
	// ladder steps instead of interpolating between them (the paper
	// interpolates, §4.2); enables measuring the quantization loss.
	QuantizeLadder bool
	// Faults, when non-nil, injects deterministic faults into every run:
	// stuck/noisy thermal sensors and DVFS failures feed the DTM
	// controller, transient ECC errors feed the cache hierarchy, and
	// run-level failures feed the sweep runner's retry logic. A nil
	// injector reproduces fault-free results bit for bit.
	Faults *faults.Injector
	// DTM, when non-nil, enables the dynamic thermal-management controller:
	// a reported measurement additionally replays its run's activity
	// through the transient thermal network under the controller and
	// carries the resulting DTMStats. RunApp and its variants always
	// replay; Scenario I and II replay only the runs they report, not
	// their profiling runs — except under active fault injection, where
	// every run replays (see attachDTM).
	DTM *DTMConfig
	// Obs, when non-nil, collects run metrics: every simulation publishes
	// its engine/cache/bus/DRAM counters (see cmp.Config.Metrics), and the
	// experiment layer adds run, DTM, and memo-cache counters. Clones share
	// the parent's registry (the struct copy keeps the pointer), so a
	// parallel sweep accumulates one combined snapshot; because everything
	// published concurrently is integer-valued, that snapshot is identical
	// for every worker count. Nil keeps the entire layer free.
	Obs *obs.Registry

	// memo, when non-nil, caches successful Measurements keyed by the full
	// run identity (see memoKey). Clones share their parent's cache, so a
	// parallel sweep dedupes the baseline/profiling runs repeated within
	// and across Scenario I and II. Enable with EnableMemo.
	memo *memoCache

	// Surrogate, when non-nil, receives every completed clean run (no
	// fault injection, no DTM) as a training sample for the closed-form
	// fast path (see package surrogate). Clones share the store the same
	// way they share the memo: the struct copy keeps the pointer, and the
	// store is concurrency-safe.
	Surrogate *surrogate.Store

	// Scenario, when non-nil, is the declarative chip description this
	// rig was built from (NewRigFromScenario); the apparatus fields above
	// are derived from it. Nil for flag-era rigs.
	Scenario *scenario.Scenario
	// Domains holds the chip's DVFS islands when the scenario declares
	// them; nil is the paper's single global domain.
	Domains *dvfs.DomainSet
	// scenarioDigest is the scenario's cache identity, folded into memo
	// and surrogate keys (see ScenarioDigest). Empty for flag-era rigs
	// and baseline-equivalent scenarios so those share caches bit for
	// bit with each other.
	scenarioDigest string
}

// Clone returns an independent copy of the rig for concurrent use. The
// immutable apparatus (technology, DVFS table, floorplan, thermal model,
// meter, calibration) is shared; mutable per-run state is not: the clone
// gets its own forked fault-injector streams (see faults.Injector.Fork)
// and its own copy of the DTM configuration. A memo cache, when enabled,
// IS shared — it is concurrency-safe and exists to dedupe runs across
// clones. The clone's fault schedule is deterministic in the parent's
// fault seed alone, never in scheduling order.
func (r *Rig) Clone() *Rig { return r.cloneFor("clone") }

// cloneFor is Clone with an explicit salt for the forked fault streams;
// the parallel sweep engine salts by (scenario, app) so every work item
// draws an independent, schedule-order-free fault stream.
func (r *Rig) cloneFor(salt string) *Rig {
	c := *r
	c.Faults = r.Faults.Fork(salt)
	if r.DTM != nil {
		dtm := *r.DTM
		c.DTM = &dtm
	}
	return &c
}

// CloneForScale returns a clone of the rig serving a different workload
// scale. Nothing in the apparatus depends on the scale — the floorplan,
// thermal model (and its factorization), meter, and calibration are all
// functions of the chip alone — so the clone shares every expensive
// structure and skips the rebuild-and-recalibrate cost of NewRig
// entirely. The memo is shared too: it keys on scale, so entries never
// cross scales. The server's rig pool uses this to make
// new-scale requests cost a struct copy instead of a calibration.
func (r *Rig) CloneForScale(scale float64) (*Rig, error) {
	if !(scale > 0) {
		return nil, fmt.Errorf("experiment: invalid scale %g", scale)
	}
	c := r.cloneFor(fmt.Sprintf("scale/%g", scale))
	c.Scale = scale
	return c, nil
}

// NewRig builds and calibrates the default 16-core 65 nm apparatus.
func NewRig(scale float64) (*Rig, error) {
	return NewCustomRig(16, scale)
}

// NewCustomRig builds and calibrates an apparatus for a chip with the
// given physical core count on the Table 1 die (used by the design-space
// exploration: the die area and thermal envelope stay fixed while the
// organization varies).
func NewCustomRig(totalCores int, scale float64) (*Rig, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("experiment: non-positive scale %g", scale)
	}
	tech := phys.Tech65()
	tab, err := dvfs.PentiumMStyle(tech)
	if err != nil {
		return nil, err
	}
	fp, err := floorplan.Chip(floorplan.DefaultChipConfig(totalCores))
	if err != nil {
		return nil, err
	}
	tm, err := thermal.NewModel(fp, thermal.DefaultParams())
	if err != nil {
		return nil, err
	}
	meter, err := power.NewMeter(tech)
	if err != nil {
		return nil, err
	}
	cal, err := meter.Calibrate(fp, tm, tab.Nominal())
	if err != nil {
		return nil, err
	}
	return &Rig{
		Tech: tech, Table: tab, FP: fp, TM: tm, Meter: meter, Cal: cal,
		TotalCores: totalCores, Scale: scale, Seed: 1,
	}, nil
}

// BudgetW returns the Scenario II power budget: the maximum nominal power
// consumption of a single core, from the calibration microbenchmark
// (paper §3.3).
func (r *Rig) BudgetW() float64 { return r.Cal.MaxOperationalW }

// pointFor picks an operating point at or below the target frequency,
// interpolated (the paper's method) or quantized to the ladder.
func (r *Rig) pointFor(freq float64) dvfs.OperatingPoint {
	if r.QuantizeLadder {
		return r.Table.Quantize(freq)
	}
	return r.Table.PointFor(freq)
}

// Measurement is one simulated run with its power/thermal evaluation.
type Measurement struct {
	App          string
	N            int
	Point        dvfs.OperatingPoint
	Seconds      float64
	Cycles       float64
	Instructions int64
	IPC          float64
	PowerW       float64
	DynW         float64
	StaticW      float64
	AvgCoreTempC float64
	PeakTempC    float64
	CoreDensity  float64 // W/m² over active core area, L2 excluded
	BusUtil      float64
	MemUtil      float64
	// ECCRetries counts injected transient cache errors corrected during
	// the run (0 without fault injection).
	ECCRetries int64
	// DTM holds the thermal-management controller's metrics when the rig
	// runs with a DTMConfig attached; nil otherwise.
	DTM *DTMStats
}

// RunApp simulates app on n cores at operating point p and evaluates
// power and temperature.
func (r *Rig) RunApp(app splash.App, n int, p dvfs.OperatingPoint) (*Measurement, error) {
	return r.RunAppCtx(context.Background(), app, n, p)
}

// runConfig assembles the simulator configuration for one run, threading
// the run's seed, the rig's fault injector and the caller's context into
// the engine.
func (r *Rig) runConfig(ctx context.Context, app splash.App, n int, p dvfs.OperatingPoint, seed uint64) cmp.Config {
	cfg := cmp.DefaultConfig(n, p)
	cfg.TotalCores = r.TotalCores
	cfg.Core = app.CoreConfig()
	cfg.Seed = seed
	cfg.ScaleMemoryWithChip = r.ScaleMemoryWithChip
	cfg.PrefetchNextLine = r.Prefetch
	// Background().Done() is nil, so the engine's poll stays free for
	// uncancellable runs.
	cfg.Ctx = ctx
	if r.Faults != nil {
		cfg.CacheFault = r.Faults
	}
	cfg.Metrics = r.Obs
	// Scenario chips with diverging cores (DVFS islands, big/little
	// classes) run per-core configs; homogeneous chips return nil here
	// and keep the uniform path.
	cfg.PerCore = r.perCoreConfigs(cfg.Core, n)
	return cfg
}

// Simulate runs app on n cores at operating point p through the rig's run
// pipeline: runConfig assembles the configuration, tune (when non-nil)
// sets the caller's own fields on it, and evaluateRun prices the run on
// the rig's chip. It returns the engine result and its power/thermal
// evaluation. Unlike RunApp it is never memoized, replayed through DTM
// or fed to the surrogate, whose keys cannot see what tune
// changed, and it draws no run-level injected failure.
func (r *Rig) Simulate(ctx context.Context, app splash.App, n int, p dvfs.OperatingPoint, tune func(*cmp.Config)) (*cmp.Result, *power.Result, error) {
	cfg := r.runConfig(ctx, app, n, p, r.Seed)
	if tune != nil {
		tune(&cfg)
	}
	res, err := cmp.Run(app.Program(r.Scale), cfg)
	if err != nil {
		return nil, nil, err
	}
	pw, err := r.evaluateRun(res.Activity, res.Seconds, int64(res.Cycles)+1, p, n)
	if err != nil {
		return nil, nil, err
	}
	return res, pw, nil
}

// RunAppCtx is RunApp under a context: cancellation aborts the simulation
// within one engine step. Failures downstream of argument validation are
// returned as *RunError values carrying the run's provenance.
func (r *Rig) RunAppCtx(ctx context.Context, app splash.App, n int, p dvfs.OperatingPoint) (*Measurement, error) {
	return r.RunAppSeeded(ctx, app, n, p, r.Seed)
}

// RunAppSeeded is RunAppCtx with the workload seed passed explicitly
// instead of read from the rig: seed studies and any other caller that
// varies the seed per run use it so the shared Rig is never mutated —
// the rig stays safe for concurrent cloned use. When a memo cache is
// enabled (EnableMemo) and fault injection is off, identical runs are
// served from the cache; fault injection bypasses the cache entirely
// because the injector's streams make runs order-dependent. On a DTM rig
// the result always carries the run's DTM stats (see attachDTM).
func (r *Rig) RunAppSeeded(ctx context.Context, app splash.App, n int, p dvfs.OperatingPoint, seed uint64) (*Measurement, error) {
	m, err := r.measure(ctx, app, n, p, seed)
	if err != nil {
		return nil, err
	}
	if err := r.attachDTM(ctx, app, m, seed); err != nil {
		return nil, err
	}
	return m, nil
}

// measure is RunAppSeeded without the DTM replay: the scenarios call it
// for profiling runs whose measurements never reach an output, and attach
// the replay (attachDTM) only to the measurements they report. Under
// active fault injection runApp still replays eagerly, so there the
// result already carries its DTM stats.
func (r *Rig) measure(ctx context.Context, app splash.App, n int, p dvfs.OperatingPoint, seed uint64) (*Measurement, error) {
	if !app.RunsOn(n) {
		return nil, fmt.Errorf("experiment: %s does not run on %d cores", app.Name, n)
	}
	if r.memo != nil && r.memoizable() {
		return r.memo.do(ctx, r.memoKeyFor(app.Name, n, p, seed), r.Obs, func() (*Measurement, error) {
			return r.runApp(ctx, app, n, p, seed)
		})
	}
	return r.runApp(ctx, app, n, p, seed)
}

// runApp is the uncached run path behind measure.
func (r *Rig) runApp(ctx context.Context, app splash.App, n int, p dvfs.OperatingPoint, seed uint64) (m *Measurement, err error) {
	fail := func(step string, err error) error {
		return &RunError{App: app.Name, N: n, Point: p, Seed: seed, Step: step, Err: err}
	}
	// A panic anywhere downstream becomes a typed error with the run's
	// provenance instead of unwinding the caller's sweep.
	defer func() {
		if v := recover(); v != nil {
			m, err = nil, fail("panic", &PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	if r.Faults != nil {
		// Run-level injected failures surface before the simulation: a
		// transient one is retryable (see RetryConfig), a hard one is not.
		if err := r.Faults.RunOutcome(app.Name, n); err != nil {
			return nil, fail("inject", err)
		}
	}
	res, err := cmp.Run(app.Program(r.Scale), r.runConfig(ctx, app, n, p, seed))
	if err != nil {
		return nil, fail("simulate", err)
	}
	pw, err := r.evaluateRun(res.Activity, res.Seconds, int64(res.Cycles)+1, p, n)
	if err != nil {
		return nil, fail("evaluate", err)
	}
	m = &Measurement{
		App: app.Name, N: n, Point: p,
		Seconds: res.Seconds, Cycles: res.Cycles, Instructions: res.Instructions,
		IPC: res.IPC(), PowerW: pw.TotalW, DynW: pw.DynW, StaticW: pw.StaticW,
		AvgCoreTempC: pw.AvgCoreTemp, PeakTempC: pw.PeakTempC, CoreDensity: pw.CoreDensity,
		BusUtil: res.BusUtilization, MemUtil: res.MemUtilization,
		ECCRetries: res.CacheStats.ECCRetries,
	}
	if !r.memoizable() {
		// The injector's sensor and DVFS streams make every replay
		// observable, so under active fault injection each run replays
		// DTM right after it simulates, in run order.
		if err := r.attachDTM(ctx, app, m, seed); err != nil {
			return nil, err
		}
	}
	r.Obs.Counter("experiment_runs_total").Add(1)
	r.feedSurrogate(m)
	return m, nil
}

// ScenarioIRow is one configuration of the Fig. 3 experiment.
type ScenarioIRow struct {
	N int
	// NominalEff is ε_n(N) measured in the nominal-frequency profiling
	// pass (Fig. 3, first panel).
	NominalEff float64
	// ActualSpeedup is T_1 / T_N at the Eq. 7 operating point (second
	// panel; ≈1 by construction, >1 for memory-bound apps).
	ActualSpeedup float64
	// NormPower is P_N / P_1 (third panel).
	NormPower float64
	// NormDensity is core power density normalized to N=1 (fourth panel).
	NormDensity float64
	// AvgTempC is the average active-core temperature (fifth panel).
	AvgTempC float64
	// Point is the chosen operating point.
	Point dvfs.OperatingPoint
	// Scaled is the measurement at the scaled point.
	Scaled *Measurement
}

// ScenarioIResult holds one application's Fig. 3 data.
type ScenarioIResult struct {
	App      string
	Baseline *Measurement // single core at nominal V/f
	Rows     []ScenarioIRow
	// DTM aggregates the thermal-management metrics over every run of the
	// scenario when the rig has a DTMConfig attached; nil otherwise.
	DTM *DTMSummary
}

// ScenarioI reproduces the paper's §4.1 experiment for one application:
// profile at nominal frequency for every core count, derive each
// configuration's target frequency from Eq. 7, re-simulate at the scaled
// operating point, and report the five Fig. 3 panels. On a DTM rig the
// baseline and each scaled run carry DTM stats; the profiling runs do not
// replay DTM (see attachDTM).
func (r *Rig) ScenarioI(app splash.App, coreCounts []int) (*ScenarioIResult, error) {
	return r.ScenarioICtx(context.Background(), app, coreCounts)
}

// ScenarioICtx is ScenarioI under a context: cancellation aborts the
// in-flight simulation within one engine step and stops the scenario.
func (r *Rig) ScenarioICtx(ctx context.Context, app splash.App, coreCounts []int) (*ScenarioIResult, error) {
	if len(coreCounts) == 0 {
		return nil, errors.New("experiment: no core counts")
	}
	base, err := r.RunAppCtx(ctx, app, 1, r.Table.Nominal())
	if err != nil {
		return nil, err
	}
	out := &ScenarioIResult{App: app.Name, Baseline: base}
	for _, n := range coreCounts {
		if n == 1 || !app.RunsOn(n) {
			continue
		}
		prof, err := r.measure(ctx, app, n, r.Table.Nominal(), r.Seed)
		if err != nil {
			return nil, err
		}
		eff := base.Seconds / (float64(n) * prof.Seconds)
		// Eq. 7: f_N = f_1 / (N · ε_n).
		target := r.Table.Nominal().Freq / (float64(n) * eff)
		point := r.pointFor(target)
		scaled, err := r.RunAppCtx(ctx, app, n, point)
		if err != nil {
			return nil, err
		}
		row := ScenarioIRow{
			N:             n,
			NominalEff:    eff,
			ActualSpeedup: base.Seconds / scaled.Seconds,
			NormPower:     scaled.PowerW / base.PowerW,
			AvgTempC:      scaled.AvgCoreTempC,
			Point:         point,
			Scaled:        scaled,
		}
		if base.CoreDensity > 0 {
			row.NormDensity = scaled.CoreDensity / base.CoreDensity
		}
		out.Rows = append(out.Rows, row)
	}
	if r.DTM != nil {
		ms := []*Measurement{base}
		for _, row := range out.Rows {
			ms = append(ms, row.Scaled)
		}
		out.DTM = summarizeDTM(ms)
	}
	return out, nil
}

// ScenarioIIRow is one configuration of the Fig. 4 experiment.
type ScenarioIIRow struct {
	N int
	// NominalSpeedup ignores the power budget (profiling pass).
	NominalSpeedup float64
	// ActualSpeedup is the best speedup within the budget.
	ActualSpeedup float64
	// Point is the chosen operating point.
	Point dvfs.OperatingPoint
	// PowerW is the measured power at that point.
	PowerW float64
	// AtNominal reports that the budget was not binding (the paper's
	// Radix observation: low-power apps run flat out up to ~8 cores).
	AtNominal bool
	// Seconds is the modeled run time at the chosen point (the denominator
	// of ActualSpeedup), kept so run manifests can report modeled time.
	Seconds float64
}

// ScenarioIIResult holds one application's Fig. 4 data.
type ScenarioIIResult struct {
	App     string
	BudgetW float64
	// BaselineSeconds is the single-core nominal run time (the numerator of
	// every speedup in Rows).
	BaselineSeconds float64
	Rows            []ScenarioIIRow
	// DTM aggregates the thermal-management metrics over every run of the
	// scenario when the rig has a DTMConfig attached; nil otherwise.
	DTM *DTMSummary
}

// profilePoints is the frequency grid of the Scenario II off-line
// profiling pass. The paper profiles every 200 MHz; we profile a coarser
// monotone grid and interpolate linearly between points (as the paper does
// between its profiled values).
func (r *Rig) profilePoints() []dvfs.OperatingPoint {
	pts := r.Table.Points()
	var out []dvfs.OperatingPoint
	for i := 0; i < len(pts); i += 3 {
		out = append(out, pts[i])
	}
	if last := pts[len(pts)-1]; len(out) == 0 || out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}

// ScenarioII reproduces the paper's §4.2 experiment for one application:
// for each core count, find via profiling the highest operating point
// whose measured power fits the single-core budget, then measure the
// actual speedup there; the nominal speedup comes from the unconstrained
// profiling pass. On a DTM rig only the measurements a row keeps — the
// baseline, a non-binding nominal run, or the final budget-fitting run —
// replay DTM; the grid and guard-loop runs do not (see attachDTM).
func (r *Rig) ScenarioII(app splash.App, coreCounts []int) (*ScenarioIIResult, error) {
	return r.ScenarioIICtx(context.Background(), app, coreCounts)
}

// ScenarioIICtx is ScenarioII under a context: cancellation aborts the
// in-flight simulation within one engine step and stops the scenario.
func (r *Rig) ScenarioIICtx(ctx context.Context, app splash.App, coreCounts []int) (*ScenarioIIResult, error) {
	if len(coreCounts) == 0 {
		return nil, errors.New("experiment: no core counts")
	}
	budget := r.BudgetW()
	base, err := r.RunAppCtx(ctx, app, 1, r.Table.Nominal())
	if err != nil {
		return nil, err
	}
	out := &ScenarioIIResult{App: app.Name, BudgetW: budget, BaselineSeconds: base.Seconds}
	kept := []*Measurement{base}
	for _, n := range coreCounts {
		if !app.RunsOn(n) {
			continue
		}
		nom, err := r.measure(ctx, app, n, r.Table.Nominal(), r.Seed)
		if err != nil {
			return nil, err
		}
		row := ScenarioIIRow{N: n, NominalSpeedup: base.Seconds / nom.Seconds}
		if nom.PowerW <= budget {
			// Budget not binding: run flat out.
			if err := r.attachDTM(ctx, app, nom, r.Seed); err != nil {
				return nil, err
			}
			row.ActualSpeedup = row.NominalSpeedup
			row.Point = r.Table.Nominal()
			row.PowerW = nom.PowerW
			row.AtNominal = true
			row.Seconds = nom.Seconds
			out.Rows = append(out.Rows, row)
			kept = append(kept, nom)
			continue
		}
		// Profile power across the frequency grid and invert for the
		// budget.
		var fx, py []float64
		for _, p := range r.profilePoints() {
			meas, err := r.measure(ctx, app, n, p, r.Seed)
			if err != nil {
				return nil, err
			}
			fx = append(fx, p.Freq)
			py = append(py, meas.PowerW)
		}
		series, err := stats.NewSeries(fx, py)
		if err != nil {
			return nil, err
		}
		targetFreq, err := series.InvertMonotone(budget)
		if err != nil {
			// Even the lowest point exceeds the budget: pin to the floor.
			targetFreq = r.Table.Min().Freq
		}
		point := r.pointFor(targetFreq)
		final, err := r.measure(ctx, app, n, point, r.Seed)
		if err != nil {
			return nil, err
		}
		// Guard: if interpolation undershot and the measured power still
		// exceeds the budget, step down the ladder until it fits.
		for final.PowerW > budget*1.02 && point.Freq > r.Table.Min().Freq {
			point = r.Table.Quantize(point.Freq * 0.999) // next step down
			if final, err = r.measure(ctx, app, n, point, r.Seed); err != nil {
				return nil, err
			}
		}
		if err := r.attachDTM(ctx, app, final, r.Seed); err != nil {
			return nil, err
		}
		row.ActualSpeedup = base.Seconds / final.Seconds
		row.Point = point
		row.PowerW = final.PowerW
		row.Seconds = final.Seconds
		out.Rows = append(out.Rows, row)
		kept = append(kept, final)
	}
	if r.DTM != nil {
		out.DTM = summarizeDTM(kept)
	}
	return out, nil
}

// ModeledSeconds sums the simulated time of the measurements a Scenario I
// result reports (baseline plus each scaled configuration; profiling runs
// are not retained and not counted). It is a deterministic function of the
// result, which is what run manifests need.
func (s *ScenarioIResult) ModeledSeconds() float64 {
	if s == nil {
		return 0
	}
	total := 0.0
	if s.Baseline != nil {
		total += s.Baseline.Seconds
	}
	for _, row := range s.Rows {
		if row.Scaled != nil {
			total += row.Scaled.Seconds
		}
	}
	return total
}

// ModeledSeconds sums the simulated time a Scenario II result reports
// (baseline plus each row's chosen-point run); see
// (*ScenarioIResult).ModeledSeconds.
func (s *ScenarioIIResult) ModeledSeconds() float64 {
	if s == nil {
		return 0
	}
	total := s.BaselineSeconds
	for _, row := range s.Rows {
		total += row.Seconds
	}
	return total
}

// Package explore implements a chip design-space exploration on top of the
// simulator: under the fixed Table 1 die area and thermal envelope, it
// contrasts organizations with few wide cores against many narrow cores
// (the Ekman & Stenström axis the paper discusses in Related Work) and
// different L2 capacities.
//
// Every organization is separately calibrated to the same 100 °C design
// point, so the comparison is iso-TDP: what varies is how the silicon is
// spent — issue width per core vs core count vs cache.
package explore

import (
	"context"
	"fmt"

	"cmppower/internal/cache"
	"cmppower/internal/cmp"
	"cmppower/internal/experiment"
	"cmppower/internal/obs"
	"cmppower/internal/scenario"
	"cmppower/internal/splash"
	"cmppower/internal/surrogate"
)

// Option is one chip organization.
type Option struct {
	// Name is a short label, e.g. "4x wide".
	Name string
	// Cores is the physical core count on the fixed die.
	Cores int
	// IssueWidth is each core's issue width.
	IssueWidth int
	// IPCBoost multiplies the application's dependence-limited IPC
	// (capped by IssueWidth): wider cores extract more ILP.
	IPCBoost float64
	// L2Bytes is the shared L2 capacity.
	L2Bytes int
}

// Validate checks the organization.
func (o Option) Validate() error {
	switch {
	case o.Name == "":
		return fmt.Errorf("explore: option needs a name")
	case o.Cores < 1 || o.Cores > 64:
		return fmt.Errorf("explore: %s: cores %d outside [1,64]", o.Name, o.Cores)
	case o.IssueWidth < 1 || o.IssueWidth > 16:
		return fmt.Errorf("explore: %s: issue width %d", o.Name, o.IssueWidth)
	case o.IPCBoost <= 0 || o.IPCBoost > 4:
		return fmt.Errorf("explore: %s: IPC boost %g", o.Name, o.IPCBoost)
	case o.L2Bytes < 256<<10:
		return fmt.Errorf("explore: %s: L2 %d too small", o.Name, o.L2Bytes)
	}
	return nil
}

// StandardOptions returns the default exploration set: trading core count
// against per-core width at roughly constant area (wider cores are
// quadratically more expensive in issue logic, so core count falls faster
// than width rises), plus an L2-heavy variant.
func StandardOptions() []Option {
	return []Option{
		{Name: "4x-wide", Cores: 4, IssueWidth: 8, IPCBoost: 1.5, L2Bytes: 4 << 20},
		{Name: "8x-balanced", Cores: 8, IssueWidth: 6, IPCBoost: 1.25, L2Bytes: 4 << 20},
		{Name: "16x-ev6", Cores: 16, IssueWidth: 4, IPCBoost: 1.0, L2Bytes: 4 << 20},
		{Name: "32x-narrow", Cores: 32, IssueWidth: 2, IPCBoost: 0.6, L2Bytes: 2 << 20},
		{Name: "8x-bigL2", Cores: 8, IssueWidth: 4, IPCBoost: 1.0, L2Bytes: 8 << 20},
	}
}

// Outcome is one (organization, application) evaluation.
type Outcome struct {
	Option Option
	App    string
	// N is the thread count used (the largest runnable count ≤ Cores).
	N int
	// Seconds, PowerW, EnergyJ, EDP are measured at nominal V/f.
	Seconds float64
	PowerW  float64
	EnergyJ float64
	EDP     float64
	// Speedup is relative to the 16x-ev6 baseline when present in the
	// same exploration, else relative to the first option.
	Speedup float64
}

// maxThreads returns the largest thread count ≤ cores the app supports.
func maxThreads(app splash.App, cores int) int {
	for n := cores; n >= 1; n-- {
		if app.RunsOn(n) {
			return n
		}
	}
	return 1
}

// Explore evaluates every application on every organization at nominal
// voltage/frequency and the given workload scale. Every organization is
// one work item (each builds and calibrates its own rig, so items share
// nothing mutable), fanned out over the given number of workers (<= 0
// means GOMAXPROCS) and merged back in option order, then app order.
// Outcomes are bit-identical for every worker count. Every run
// publishes its engine counters into reg (nil-safe; integer-only
// concurrent updates keep the snapshot identical at every worker count).
//
// The exploration's whole point is to vary the organization, so the
// scenario sc (nil means scenario.Baseline()) contributes only its
// global axes — technology node, die geometry, 3D stacking, thermal
// constants, DVFS ladder, memory switches — while each option supersedes
// the organization axes: per-option rigs take the option's core count,
// and the scenario's DVFS domains and core-class assignment (which are
// tied to its own core count) are cleared.
//
// A non-nil store and keyFor turn on surrogate-guided pruning (see
// pruneCells): cells that clearly cannot win are answered from the
// surrogate instead of simulated. A nil store prunes nothing, and every
// cell is labelled "simulation".
func Explore(ctx context.Context, apps []splash.App, opts []Option, sc *scenario.Scenario, scale float64,
	workers int, reg *obs.Registry, store *surrogate.Store,
	keyFor func(app string) surrogate.Key) ([]SourcedOutcome, error) {
	if len(apps) == 0 || len(opts) == 0 {
		return nil, fmt.Errorf("explore: empty sweep (%d apps, %d options)", len(apps), len(opts))
	}
	for _, opt := range opts {
		if err := opt.Validate(); err != nil {
			return nil, err
		}
	}
	// Speedups are relative to the 16x-ev6 organization (or the first
	// option).
	refName := opts[0].Name
	for _, opt := range opts {
		if opt.Name == "16x-ev6" {
			refName = opt.Name
		}
	}
	prune := pruneCells(apps, opts, refName, store, keyFor)

	// Simulate what survived: per option, the apps not pruned for it. An
	// option with every app pruned skips rig construction and calibration
	// entirely — that is where pruning's speedup lives.
	perOpt := make([][]Outcome, len(opts))
	errs := make([]error, len(opts))
	poolErr := experiment.RunIndexed(ctx, workers, len(opts), func(i int) {
		var sim []splash.App
		for _, app := range apps {
			if _, ok := prune[[2]string{opts[i].Name, app.Name}]; !ok {
				sim = append(sim, app)
			}
		}
		if len(sim) > 0 {
			perOpt[i], errs[i] = exploreOption(ctx, sim, opts[i], sc, scale, reg)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if poolErr != nil {
		return nil, poolErr
	}

	// Merge back into the full grid: simulated outcomes come back in the
	// order their apps were handed out, so one cursor per option walks
	// them.
	var out []SourcedOutcome
	for i, opt := range opts {
		simd := perOpt[i]
		for _, app := range apps {
			if e, ok := prune[[2]string{opt.Name, app.Name}]; ok {
				out = append(out, SourcedOutcome{
					Outcome: Outcome{
						Option: opt, App: app.Name, N: maxThreads(app, opt.Cores),
						Seconds: e.pred.Seconds, PowerW: e.pred.PowerW,
						EnergyJ: e.pred.EnergyJ, EDP: e.pred.EDP,
					},
					Source: "surrogate", Margin: e.margin,
				})
				reg.VolatileCounter("explore_cells_pruned_total").Add(1)
				continue
			}
			out = append(out, SourcedOutcome{Outcome: simd[0], Source: "simulation"})
			simd = simd[1:]
			reg.VolatileCounter("explore_cells_simulated_total").Add(1)
		}
	}

	ref := make(map[string]float64)
	for _, o := range out {
		if o.Option.Name == refName {
			ref[o.App] = o.Seconds
		}
	}
	for i := range out {
		if base, ok := ref[out[i].App]; ok && out[i].Seconds > 0 {
			out[i].Speedup = base / out[i].Seconds
		}
	}
	return out, nil
}

// optionRig builds one organization's calibrated rig: the scenario's
// chip (the baseline when sc is nil) with the organization axes
// overridden (see Explore).
func optionRig(opt Option, sc *scenario.Scenario, scale float64) (*experiment.Rig, error) {
	c := scenario.Baseline()
	if sc != nil {
		c = sc.Clone()
	}
	c.Chip.TotalCores = opt.Cores
	c.DVFS.Domains = nil
	c.Cores = scenario.CoresSpec{}
	return experiment.NewRigFromScenario(c, scale)
}

// exploreOption evaluates every application on one organization: one
// sweep work item, with its own freshly calibrated rig. Each run goes
// through the rig's run pipeline with the organization's core width, ILP
// boost and L2 capacity set on top, so the scenario's memory switches
// apply to every option.
func exploreOption(ctx context.Context, apps []splash.App, opt Option, sc *scenario.Scenario, scale float64, reg *obs.Registry) ([]Outcome, error) {
	rig, err := optionRig(opt, sc, scale)
	if err != nil {
		return nil, err
	}
	rig.Obs = reg
	point := rig.Table.Nominal()
	var out []Outcome
	for _, app := range apps {
		n := maxThreads(app, opt.Cores)
		res, pw, err := rig.Simulate(ctx, app, n, point, func(cfg *cmp.Config) {
			cfg.Core.IssueWidth = opt.IssueWidth
			cfg.Core.IPCNonMem *= opt.IPCBoost
			if lim := float64(opt.IssueWidth); cfg.Core.IPCNonMem > lim {
				cfg.Core.IPCNonMem = lim
			}
			cc := cache.DefaultConfig(n, point.Freq)
			cc.L2 = cache.Geometry{SizeBytes: opt.L2Bytes, LineBytes: 128, Ways: 8}
			cfg.CacheOverride = &cc
		})
		if err != nil {
			return nil, fmt.Errorf("explore: %s on %s: %w", app.Name, opt.Name, err)
		}
		o := Outcome{
			Option: opt, App: app.Name, N: n,
			Seconds: res.Seconds, PowerW: pw.TotalW,
			EnergyJ: pw.TotalW * res.Seconds,
		}
		o.EDP = o.EnergyJ * o.Seconds
		out = append(out, o)
	}
	return out, nil
}

// BestByEDP returns, for each application, the organization with the
// lowest energy-delay product.
func BestByEDP(outcomes []Outcome) map[string]Outcome {
	best := make(map[string]Outcome)
	for _, o := range outcomes {
		if cur, ok := best[o.App]; !ok || o.EDP < cur.EDP {
			best[o.App] = o
		}
	}
	return best
}

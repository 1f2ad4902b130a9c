package main

import (
	"context"
	"fmt"
	"math"

	"cmppower"
	"cmppower/internal/cpu"
	"cmppower/internal/phys"
	"cmppower/internal/workload"
)

// runSpec is one simulated run a workload produced, replayed layer by
// layer in a traced run.
type runSpec struct {
	app   cmppower.App
	n     int
	point cmppower.OperatingPoint
	seed  uint64
	// wantSeconds and wantPowerW are what the workload reported for the
	// run; 0 means not reported.
	wantSeconds, wantPowerW float64
}

// check records a problem when a replayed run disagrees with what the
// workload reported for it.
func (r runSpec) check(res *result, seconds, powerW float64) {
	if r.wantSeconds != 0 && seconds != r.wantSeconds {
		res.problem("%s on %d cores at %v: replay took %v modeled s, the workload reported %v",
			r.app.Name, r.n, r.point, seconds, r.wantSeconds)
	}
	if r.wantPowerW != 0 && !nearlyEqual(powerW, r.wantPowerW) {
		res.problem("%s on %d cores at %v: replay drew %v W, the workload reported %v",
			r.app.Name, r.n, r.point, powerW, r.wantPowerW)
	}
}

// nearlyEqual reports whether a and b agree to 1e-12 relative: a power
// sum taken in a different order may differ in the last bits.
func nearlyEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }

// simConfig builds the simulator configuration for one run the way the
// experiment layer does for rig (cmp.DefaultConfig plus the rig's chip,
// application and per-core settings).
func simConfig(ctx context.Context, rig *cmppower.Experiment, r runSpec) cmppower.SimConfig {
	cfg := cmppower.DefaultSimConfig(r.n, r.point)
	cfg.TotalCores = rig.TotalCores
	cfg.Core = r.app.CoreConfig()
	cfg.Seed = r.seed
	cfg.ScaleMemoryWithChip = rig.ScaleMemoryWithChip
	cfg.PrefetchNextLine = rig.Prefetch
	cfg.Ctx = ctx
	cfg.PerCore = perCoreConfigs(rig, cfg.Core, r.n)
	return cfg
}

// perCoreConfigs applies a scenario chip's big/little class overrides and
// DVFS-domain speed ratios to the run's core configuration; nil keeps the
// uniform path for homogeneous chips.
func perCoreConfigs(rig *cmppower.Experiment, base cpu.Config, n int) []cpu.Config {
	if rig.Scenario == nil {
		return nil
	}
	hetero := false
	per := make([]cpu.Config, n)
	for c := 0; c < n; c++ {
		cc := base
		if cl := rig.Scenario.ClassOf(c); cl != nil {
			if cl.IssueWidth > 0 {
				cc.IssueWidth = cl.IssueWidth
			}
			if s := cl.IPCScale; s != 0 && s != 1 {
				cc.IPCNonMem *= s
			}
			if cc.IPCNonMem > float64(cc.IssueWidth) {
				cc.IPCNonMem = float64(cc.IssueWidth)
			}
		}
		if rig.Domains != nil {
			if ratio := rig.Domains.RatioOf(c); ratio != 1 {
				cc.SpeedRatio = ratio
			}
		}
		hetero = hetero || cc != base
		per[c] = cc
	}
	if !hetero {
		return nil
	}
	return per
}

// dtmIntervals is the sampling the DTM re-simulation uses.
func dtmIntervals(rig *cmppower.Experiment) int {
	if rig.DTM != nil && rig.DTM.Intervals > 0 {
		return rig.DTM.Intervals
	}
	return cmppower.DefaultDTMConfig().Intervals
}

// replayRuns replays every run through the public call of each layer a
// run passes through and sets the run-layer metrics, as means per run:
//
//	experiment.run    Rig.RunAppSeeded, as the workload runs it (memo-less rig)
//	  app.program     App.Program
//	  cmp.run         cmp.Run with the configuration the experiment layer builds
//	    workload.stream  every thread's stream drained until Done
//	  power.dynamic   Meter.DynamicBlockPower (per-core supplies on split-domain chips)
//	  thermal.coupled Model.SteadyStateCoupled with a counting leakage closure
//	  cmp.sampled_run cmp.Run sampled for DTM (a child only when the workload runs DTM)
//
// RunAppSeeded is also run with the rig's DTM switch flipped, for
// experiment.dtm_s. Engine counts come from a registry attached to the
// cmp.run calls only, so they repeat exactly.
//
// RunAppSeeded must reproduce what the workload reported, or the run is
// not correct. The layer calls beneath it copy how the experiment layer
// combines them, which may change without changing any result; when they
// no longer reproduce RunAppSeeded, the run prints a note and stays
// correct.
func replayRuns(ctx context.Context, rig *cmppower.Experiment, runs []runSpec, tr *tracer, res *result) error {
	alt := rig.Clone()
	if rig.DTM == nil {
		d := cmppower.DefaultDTMConfig()
		alt.DTM = &d
	} else {
		alt.DTM = nil
	}
	reg := cmppower.NewMetricsRegistry()
	var streamEvents, dtmSec, iters float64
	var drift []string
	buf := make([]workload.Event, 256)
	for _, r := range runs {
		u := tr.unit()
		var m *cmppower.Measurement
		runID, err := tr.time("experiment.run", 0, u, func() (err error) {
			m, err = rig.RunAppSeeded(ctx, r.app, r.n, r.point, r.seed)
			return err
		})
		if err != nil {
			return err
		}
		r.check(res, m.Seconds, m.PowerW)
		altID, err := tr.time("experiment.run_alt", 0, u, func() error {
			_, err := alt.RunAppSeeded(ctx, r.app, r.n, r.point, r.seed)
			return err
		})
		if err != nil {
			return err
		}
		withDTM, without := tr.spans[runID-1].Dur, tr.spans[altID-1].Dur
		if rig.DTM == nil {
			withDTM, without = without, withDTM
		}
		dtmSec += float64(withDTM-without) / 1e9

		var prog *cmppower.Program
		tr.time("app.program", runID, u, func() error { prog = r.app.Program(rig.Scale); return nil })

		cfg := simConfig(ctx, rig, r)
		cfg.Metrics = reg
		var sim *cmppower.SimResult
		cmpID, err := tr.time("cmp.run", runID, u, func() (err error) {
			sim, err = cmppower.Simulate(prog, cfg)
			return err
		})
		if err != nil {
			return err
		}
		if sim.Seconds != m.Seconds {
			drift = append(drift, fmt.Sprintf("%s on %d cores: cmp.Run took %v modeled s, RunAppSeeded %v", r.app.Name, r.n, sim.Seconds, m.Seconds))
		}
		if _, err := tr.time("workload.stream", cmpID, u, func() error {
			for tid := 0; tid < r.n; tid++ {
				st, err := workload.NewStream(prog, tid, r.n, r.seed)
				if err != nil {
					return err
				}
				// NextBatch keeps returning EvDone once the program ends, so
				// Done is the stop condition; the trailing EvDone is not an
				// event.
				for !st.Done() {
					streamEvents += float64(st.NextBatch(buf))
				}
				streamEvents--
			}
			return nil
		}); err != nil {
			return err
		}

		sampledParent := 0
		if rig.DTM != nil {
			sampledParent = runID
		}
		scfg := simConfig(ctx, rig, r)
		scfg.SampleCycles = math.Max(1, sim.Cycles/float64(dtmIntervals(rig)))
		if _, err := tr.time("cmp.sampled_run", sampledParent, u, func() error {
			_, err := cmppower.Simulate(prog, scfg)
			return err
		}); err != nil {
			return err
		}

		active := make([]bool, rig.TotalCores)
		for i := 0; i < r.n && i < len(active); i++ {
			active[i] = true
		}
		volt := func(int) float64 { return r.point.Volt }
		var dyn []float64
		if _, err := tr.time("power.dynamic", runID, u, func() (err error) {
			cycles := int64(sim.Cycles) + 1
			if rig.Domains != nil && !rig.Domains.Uniform() {
				points := rig.Domains.CorePoints(rig.Table, r.point)
				volt = func(block int) float64 {
					if c := rig.FP.Blocks[block].Core; c >= 0 && c < len(points) {
						return points[c].Volt
					}
					return r.point.Volt
				}
				dyn, err = rig.Meter.DynamicBlockPowerHetero(rig.FP, sim.Activity, sim.Seconds, cycles, r.point, points, active)
				return err
			}
			dyn, err = rig.Meter.DynamicBlockPower(rig.FP, sim.Activity, sim.Seconds, cycles, r.point, r.n)
			return err
		}); err != nil {
			return err
		}
		var calls int
		var total []float64
		if _, err := tr.time("thermal.coupled", runID, u, func() (err error) {
			leak := func(i int, tempC float64) float64 {
				calls++
				return dyn[i] * rig.Meter.StaticFraction(volt(i), phys.Clamp(tempC, cmppower.AmbientTempC, 120))
			}
			_, total, err = rig.TM.SteadyStateCoupled(dyn, leak, 0.01)
			return err
		}); err != nil {
			return err
		}
		iters += float64(calls) / float64(rig.TM.NumNodes())
		var powerW float64
		for _, w := range total {
			powerW += w
		}
		if !nearlyEqual(powerW, m.PowerW) {
			drift = append(drift, fmt.Sprintf("%s on %d cores: power and thermal drew %v W, RunAppSeeded %v", r.app.Name, r.n, powerW, m.PowerW))
		}
	}
	if len(drift) > 0 {
		res.notes = append(res.notes, fmt.Sprintf("note: %d layer replays differ from RunAppSeeded, so their layer times may not stand for the library's; first: %s",
			len(drift), drift[0]))
	}

	units := float64(len(runs))
	total, self := tr.layerTimes()
	for _, l := range []struct{ metric, span string }{
		{"app.program_s", "app.program"},
		{"workload.stream_s", "workload.stream"},
		{"cmp.run_s", "cmp.run"},
		{"cmp.sampled_run_s", "cmp.sampled_run"},
		{"power.dynamic_s", "power.dynamic"},
		{"thermal.coupled_s", "thermal.coupled"},
		{"experiment.run_s", "experiment.run"},
	} {
		res.set(l.metric, total[l.span]/units, len(runs))
	}
	res.set("cmp.self_s", self["cmp.run"]/units, len(runs))
	res.set("experiment.self_s", self["experiment.run"]/units, len(runs))
	res.set("experiment.dtm_s", math.Max(0, dtmSec/units), len(runs))
	res.set("thermal.fixed_point_iters", iters/units, len(runs))
	res.set("workload.events_per_s", ratio(streamEvents, total["workload.stream"]), len(runs))
	engineEvents := float64(reg.Counter("engine_events_total").Value())
	res.set("cmp.events_per_s", ratio(engineEvents, total["cmp.run"]), len(runs))
	layerSum, root := tr.treeSelf("experiment.run")
	res.set("experiment.layer_sum_ratio", ratio(layerSum, root), len(runs))
	for metric, counter := range map[string]string{
		"cmp.runs":           "engine_runs_total",
		"cmp.events":         "engine_events_total",
		"cache.l1d_accesses": "cache_l1d_accesses_total",
		"cache.l1d_misses":   "cache_l1d_misses_total",
		"cache.l2_accesses":  "cache_l2_accesses_total",
		"cache.l2_fills":     "cache_l2_fills_total",
		"bus.transactions":   "bus_transactions_total",
		"bus.wait_cycles":    "bus_wait_cycles_total",
		"mem.accesses":       "mem_accesses_total",
		"mem.queue_ns":       "mem_queue_ns_total",
	} {
		res.set(metric, float64(reg.Counter(counter).Value()), len(runs))
	}
	return nil
}

// requestRuns lists the distinct simulations the exact-mode requests among
// bodies ask for, for the run-layer replay.
func requestRuns(rig *cmppower.Experiment, bodies [][]byte) ([]runSpec, error) {
	var runs []runSpec
	seen := make(map[string]bool)
	for _, body := range bodies {
		req, err := decodeRun(body)
		if err != nil {
			return nil, err
		}
		if req.Mode != "" || seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		app, err := cmppower.AppByName(req.App)
		if err != nil {
			return nil, err
		}
		point := rig.Table.Nominal()
		if req.FreqMHz > 0 {
			point = rig.Table.PointFor(req.FreqMHz * 1e6)
		}
		runs = append(runs, runSpec{app: app, n: req.N, point: point, seed: req.Seed})
	}
	return runs, nil
}

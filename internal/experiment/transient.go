package experiment

import (
	"context"
	"errors"
	"fmt"

	"cmppower/internal/check"
	"cmppower/internal/cmp"
	"cmppower/internal/dvfs"
	"cmppower/internal/phys"
	"cmppower/internal/splash"
	"cmppower/internal/thermal"
)

// TransientPoint is one interval of a transient thermal trace.
type TransientPoint struct {
	StartCycle float64
	EndCycle   float64
	// Seconds is the (dilated) wall-clock length of the interval.
	Seconds float64
	// DynW and TotalW are the interval's average dynamic and total power.
	DynW   float64
	TotalW float64
	// AvgCoreTempC and PeakTempC are the die state at the interval's end.
	AvgCoreTempC float64
	PeakTempC    float64
}

// TransientConfig controls a transient trace run.
type TransientConfig struct {
	// SampleCycles sets the activity-sampling granularity.
	SampleCycles float64
	// TimeDilation stretches each interval's wall-clock duration. Die
	// thermal time constants are tens of milliseconds while the scaled
	// workloads run for a few; dilation models the program phase repeating
	// (the standard device for thermal studies of short benchmark slices).
	// 1 means real time.
	TimeDilation float64
	// StartTempC is the uniform initial die temperature (default ambient).
	StartTempC float64
}

// DefaultTransientConfig returns a trace setup that resolves the warming
// curve of a millisecond-scale run: 16 intervals of dilated execution.
func DefaultTransientConfig() TransientConfig {
	return TransientConfig{
		SampleCycles: 0, // derived from the run length when zero
		TimeDilation: 2000,
		StartTempC:   phys.AmbientTempC,
	}
}

// Transient runs app on n cores at operating point p, splits the run into
// activity intervals, and steps the thermal network through them, with
// each core block charged at its own core's operating point and static
// power tracking the evolving block temperatures. It returns the
// per-interval trace.
func (r *Rig) Transient(app splash.App, n int, p dvfs.OperatingPoint, tc TransientConfig) ([]TransientPoint, error) {
	if !app.RunsOn(n) {
		return nil, fmt.Errorf("experiment: %s does not run on %d cores", app.Name, n)
	}
	if !(tc.TimeDilation > 0 && tc.TimeDilation <= maxTimeDilation) {
		return nil, check.Fail("TimeDilation", tc.TimeDilation, "experiment: time dilation %g outside (0, %g]", tc.TimeDilation, maxTimeDilation)
	}
	if tc.StartTempC == 0 {
		tc.StartTempC = phys.AmbientTempC
	}
	if tc.StartTempC < phys.AmbientTempC {
		return nil, fmt.Errorf("experiment: start temperature %g below ambient", tc.StartTempC)
	}
	cfg := r.runConfig(context.TODO(), app, n, p, r.Seed)
	cfg.SampleCycles = tc.SampleCycles
	if cfg.SampleCycles <= 0 {
		// Probe the run length once, then sample it into ~16 intervals.
		probe, err := cmp.Run(app.Program(r.Scale), cfg)
		if err != nil {
			return nil, err
		}
		cfg.SampleCycles = probe.Cycles / 16
		if cfg.SampleCycles < 1 {
			cfg.SampleCycles = 1
		}
	}
	res, err := cmp.Run(app.Program(r.Scale), cfg)
	if err != nil {
		return nil, err
	}
	if len(res.Samples) == 0 {
		return nil, errors.New("experiment: run produced no samples")
	}

	rp := r.newReplay(n, tc.StartTempC, tc.TimeDilation)
	points, coreBlocks := r.corePoints(p), thermal.ActiveCores(n)
	var trace []TransientPoint
	for _, s := range res.Samples {
		realDt, err := rp.step(s, p, points)
		if err != nil {
			return nil, err
		}
		var dynW, totW float64
		for i := range rp.dyn {
			dynW += rp.dyn[i]
			totW += rp.total[i]
		}
		trace = append(trace, TransientPoint{
			StartCycle:   s.StartCycle,
			EndCycle:     s.EndCycle,
			Seconds:      realDt * tc.TimeDilation,
			DynW:         dynW,
			TotalW:       totW,
			AvgCoreTempC: r.TM.AvgWeighted(rp.state.Block, coreBlocks),
			PeakTempC:    thermal.Peak(rp.state.Block),
		})
	}
	return trace, nil
}

// replay steps the die through a sampled run one interval at a time: the
// one interval step that Rig.Transient and the DTM governor share.
type replay struct {
	r        *Rig
	state    *thermal.TransientState
	active   []bool
	dilation float64
	// dyn and total are the last interval's per-block dynamic and total
	// power; total is one buffer reused by every interval.
	dyn, total []float64
}

// newReplay starts the replay of an n-core run with every block and the
// heat sink at startC, each interval's real length stretched by dilation
// as the thermal network sees it.
func (r *Rig) newReplay(n int, startC, dilation float64) *replay {
	st := r.TM.NewTransientState()
	for i := range st.Block {
		st.Block[i] = startC
	}
	st.SinkC = startC
	return &replay{r: r, state: st, active: r.activeCores(n), dilation: dilation, total: make([]float64, len(st.Block))}
}

// step prices sample s with the chip at lead point lead and each core at
// its entry of points: dynamic power is the sample's activity over its
// real length at those points, and static power follows each block's
// temperature at the interval's start, an explicit leakage coupling that
// is stable because intervals are short against the die's thermal time
// constants. It then advances the die through the dilated interval and
// returns the interval's real length in seconds.
func (rp *replay) step(s cmp.Sample, lead dvfs.OperatingPoint, points []dvfs.OperatingPoint) (float64, error) {
	r := rp.r
	cycles := s.EndCycle - s.StartCycle
	// Power is the interval's real average (activity over real time);
	// dilation only stretches how long the thermal network sees it.
	realDt := cycles / lead.Freq
	dyn, err := r.Meter.DynamicBlockPowerHetero(r.FP, s.Activity, realDt, int64(cycles)+1, lead, points, rp.active)
	if err != nil {
		return 0, err
	}
	for i := range rp.total {
		rp.total[i] = dyn[i] * (1 + r.Meter.BlockStaticFraction(r.FP.Blocks[i].Core, lead, points, rp.state.Block[i]))
	}
	rp.dyn = dyn
	return realDt, r.TM.TransientStep(rp.state, rp.total, realDt*rp.dilation)
}

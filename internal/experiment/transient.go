package experiment

import (
	"context"
	"errors"
	"fmt"

	"cmppower/internal/cmp"
	"cmppower/internal/dvfs"
	"cmppower/internal/floorplan"
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
	if tc.TimeDilation <= 0 {
		return nil, fmt.Errorf("experiment: non-positive time dilation %g", tc.TimeDilation)
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

	state := r.TM.NewTransientState()
	for i := range state.Block {
		state.Block[i] = tc.StartTempC
	}
	state.SinkC = tc.StartTempC
	points, active := r.corePoints(p), r.activeCores(n)
	var trace []TransientPoint
	for _, s := range res.Samples {
		cycles := s.EndCycle - s.StartCycle
		// Power is the interval's real average (activity over real time);
		// dilation only stretches how long the thermal network sees it.
		realDt := cycles / p.Freq
		dt := realDt * tc.TimeDilation
		dyn, total, err := r.intervalPower(s.Activity, realDt, int64(cycles)+1, p, points, active, state.Block)
		if err != nil {
			return nil, err
		}
		var dynW, totW float64
		for i := range dyn {
			dynW += dyn[i]
			totW += total[i]
		}
		if err := r.TM.TransientStep(state, total, dt); err != nil {
			return nil, err
		}
		pt := TransientPoint{
			StartCycle: s.StartCycle,
			EndCycle:   s.EndCycle,
			Seconds:    dt,
			DynW:       dynW,
			TotalW:     totW,
			PeakTempC:  thermal.Peak(state.Block),
		}
		pt.AvgCoreTempC = r.TM.AvgWeighted(state.Block, func(b floorplan.Block) bool {
			return b.Core >= 0 && b.Core < n
		})
		trace = append(trace, pt)
	}
	return trace, nil
}

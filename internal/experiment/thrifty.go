package experiment

import (
	"context"
	"fmt"

	"cmppower/internal/cmp"
	"cmppower/internal/dvfs"
	"cmppower/internal/power"
	"cmppower/internal/splash"
)

// ThriftyResult compares spinning at barriers against the thrifty-barrier
// policy (the paper's ref. [26]): waiters enter a deep low-power state
// instead of burning the clock-gate residual.
type ThriftyResult struct {
	App string
	N   int
	// SpinPowerW and ThriftyPowerW are total chip power under each policy.
	SpinPowerW    float64
	ThriftyPowerW float64
	// SpinEnergyJ and ThriftyEnergyJ are total energies (runtimes are
	// identical by construction: sleeping changes power, not timing).
	SpinEnergyJ    float64
	ThriftyEnergyJ float64
	// SleepFraction is the share of total core cycles spent asleep.
	SleepFraction float64
	// SavingFraction is 1 - thrifty/spin energy.
	SavingFraction float64
}

// ThriftyBarrier runs app twice on n cores at operating point p — spinning
// vs sleeping at barriers — and reports the energy difference. Imbalanced
// applications (Volrend, LU, Radiosity) have the most to gain.
func (r *Rig) ThriftyBarrier(app splash.App, n int, p dvfs.OperatingPoint) (*ThriftyResult, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiment: thrifty barriers need n >= 2, got %d", n)
	}
	run := func(thrifty bool) (*cmp.Result, *power.Result, error) {
		return r.Simulate(context.TODO(), app, n, p, func(cfg *cmp.Config) {
			cfg.ThriftyBarriers = thrifty
		})
	}
	spinRes, spin, err := run(false)
	if err != nil {
		return nil, err
	}
	thriftyRes, thrifty, err := run(true)
	if err != nil {
		return nil, err
	}
	if spinRes.Cycles != thriftyRes.Cycles {
		return nil, fmt.Errorf("experiment: policies changed timing (%g vs %g cycles)",
			spinRes.Cycles, thriftyRes.Cycles)
	}
	out := &ThriftyResult{
		App: app.Name, N: n,
		SpinPowerW:     spin.TotalW,
		ThriftyPowerW:  thrifty.TotalW,
		SpinEnergyJ:    spin.TotalW * spinRes.Seconds,
		ThriftyEnergyJ: thrifty.TotalW * thriftyRes.Seconds,
	}
	var slept int64
	for c := 0; c < n; c++ {
		slept += thriftyRes.Activity.SleepCount(c)
	}
	out.SleepFraction = float64(slept) / (float64(n) * thriftyRes.Cycles)
	if out.SpinEnergyJ > 0 {
		out.SavingFraction = 1 - out.ThriftyEnergyJ/out.SpinEnergyJ
	}
	return out, nil
}

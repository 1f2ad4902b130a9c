package main

import (
	"fmt"
	"reflect"

	"cmppower"
	"cmppower/internal/experiment"
	"cmppower/internal/scenario"
)

// checkScenario is doctor check 15: the scenario IR's three contracts.
//
//  1. Baseline fidelity: a rig built from the baseline scenario document
//     keeps the legacy cache identity (an empty digest) and the baseline
//     name, calibrates and measures bit-identically to the legacy
//     flag-era rig, and a scenario sweep is bit-identical across worker
//     counts.
//  2. Identity: the content digest is deterministic, blind to syntactic
//     variants (a fully-spelled-out document and a defaulted one hash
//     equal), sees through the name for cache identity (IsBaseline),
//     and separates genuinely different chips.
//  3. 3D stacking physics: within one stack, a buried layer is thermally
//     worse than the sink-adjacent layer — its 100 °C power cap is lower
//     and equal watts peak hotter.
func checkScenario() error {
	// 1. Baseline fidelity.
	legacy, err := experiment.NewRig(0.05)
	if err != nil {
		return err
	}
	fromScenario, err := experiment.NewRigFromScenario(scenario.Baseline(), 0.05)
	if err != nil {
		return err
	}
	if d := fromScenario.ScenarioDigest(); d != "" {
		return fmt.Errorf("baseline scenario digest %q, want empty (legacy cache identity)", d)
	}
	if name := fromScenario.ScenarioName(); name != "baseline-2005" {
		return fmt.Errorf("baseline scenario named %q", name)
	}
	if *fromScenario.Cal != *legacy.Cal {
		return fmt.Errorf("baseline scenario calibration differs: %+v vs %+v", fromScenario.Cal, legacy.Cal)
	}
	apps, err := appsFor("FFT,FMM")
	if err != nil {
		return err
	}
	for _, app := range apps {
		want, err := legacy.RunApp(app, 4, legacy.Table.Nominal())
		if err != nil {
			return err
		}
		got, err := fromScenario.RunApp(app, 4, fromScenario.Table.Nominal())
		if err != nil {
			return err
		}
		if *want != *got {
			return fmt.Errorf("%s: baseline scenario rig diverged from legacy rig: %+v vs %+v", app.Name, got, want)
		}
	}

	// Scenario sweeps are deterministic across -j, like everything else.
	var outs [2][]cmppower.SweepOutcome
	for i, workers := range []int{1, 4} {
		sc := scenario.Baseline()
		sc.Name = "doctor-90nm"
		sc.Node = "90nm"
		rig, err := experiment.NewRigFromScenario(sc, 0.05)
		if err != nil {
			return err
		}
		if outs[i], err = sweep(rig, "FFT,LU", cmppower.SweepConfig{Workers: workers}); err != nil {
			return err
		}
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		return fmt.Errorf("scenario sweep outcomes differ between -j 1 and -j 4")
	}

	// 2. Identity.
	explicit := scenario.Baseline()
	defaulted := &scenario.Scenario{Name: explicit.Name, Description: explicit.Description}
	defaulted.Normalize()
	d1, err := explicit.Digest()
	if err != nil {
		return err
	}
	d2, err := defaulted.Digest()
	if err != nil {
		return err
	}
	if d1 != d2 {
		return fmt.Errorf("syntactic variants of the baseline hash differently: %s vs %s", d1, d2)
	}
	renamed := scenario.Baseline()
	renamed.Name = "someone-elses-baseline"
	if base, err := renamed.IsBaseline(); err != nil || !base {
		return fmt.Errorf("renamed baseline not recognized as baseline (err=%v)", err)
	}
	other := scenario.Baseline()
	other.Node = "90nm"
	d3, err := other.Digest()
	if err != nil {
		return err
	}
	if d3 == d1 {
		return fmt.Errorf("90nm chip hashes equal to the 65nm baseline: %s", d1)
	}
	if base, err := other.IsBaseline(); err != nil || base {
		return fmt.Errorf("90nm chip recognized as baseline (err=%v)", err)
	}

	// 3. Within-stack 3D thermal monotonicity.
	stacked := scenario.Baseline()
	stacked.Name = "doctor-3dstack"
	stacked.Chip.Layers = 4
	rig, err := experiment.NewRigFromScenario(stacked, 0.05)
	if err != nil {
		return err
	}
	layerShape := func(layer int) []float64 {
		shape := make([]float64, len(rig.FP.Blocks))
		for i, b := range rig.FP.Blocks {
			if b.Core >= 0 && b.Layer == layer {
				shape[i] = b.Area()
			}
		}
		return shape
	}
	top := rig.FP.Layers() - 1
	_, sinkW, err := rig.TM.PowerForPeak(layerShape(0), 100)
	if err != nil {
		return err
	}
	_, buriedW, err := rig.TM.PowerForPeak(layerShape(top), 100)
	if err != nil {
		return err
	}
	if buriedW >= sinkW {
		return fmt.Errorf("buried-layer 100°C power cap %g W >= sink-adjacent %g W", buriedW, sinkW)
	}
	const probeW = 20.0
	scaleTo := func(shape []float64, watts float64) []float64 {
		var sum float64
		for _, v := range shape {
			sum += v
		}
		out := make([]float64, len(shape))
		for i, v := range shape {
			out[i] = v / sum * watts
		}
		return out
	}
	peakOf := func(t []float64) float64 {
		max := t[0]
		for _, v := range t[1:] {
			if v > max {
				max = v
			}
		}
		return max
	}
	sinkT, err := rig.TM.SteadyState(scaleTo(layerShape(0), probeW))
	if err != nil {
		return err
	}
	buriedT, err := rig.TM.SteadyState(scaleTo(layerShape(top), probeW))
	if err != nil {
		return err
	}
	if peakOf(buriedT) <= peakOf(sinkT) {
		return fmt.Errorf("buried die not hotter at %g W: %g °C vs %g °C", probeW, peakOf(buriedT), peakOf(sinkT))
	}
	return nil
}

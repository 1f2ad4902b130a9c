package experiment_test

import (
	"context"
	"errors"
	"testing"

	"cmppower/internal/experiment"
	"cmppower/internal/explore"
	"cmppower/internal/scenario"
	"cmppower/internal/splash"
)

// pipelineScale keeps the entry-point × chip table fast.
const pipelineScale = 0.05

// pipelineChip is one chip of the table: its scenario (nil for the
// baseline) and whether its cores differ.
type pipelineChip struct {
	name   string
	sc     *scenario.Scenario
	hetero bool
}

func pipelineChips(t *testing.T) []pipelineChip {
	t.Helper()
	load := func(name string) *scenario.Scenario {
		sc, err := scenario.LoadFile("../../examples/scenarios/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	islands := scenario.Baseline()
	islands.Name = "two-islands"
	islands.DVFS.Domains = []scenario.DomainSpec{
		{Name: "fast", Cores: []int{0, 1, 2, 3, 4, 5, 6, 7}, SpeedRatio: 1},
		{Name: "slow", Cores: []int{8, 9, 10, 11, 12, 13, 14, 15}, SpeedRatio: 0.5},
	}
	return []pipelineChip{
		{name: "baseline"},
		{name: "biglittle", sc: load("biglittle"), hetero: true},
		{name: "65nm-quantized", sc: load("65nm-quantized")},
		{name: "two-islands", sc: islands, hetero: true},
	}
}

func pipelineRig(t *testing.T, sc *scenario.Scenario) *experiment.Rig {
	t.Helper()
	rig, err := experiment.NewRigFromScenario(sc, pipelineScale)
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

func pipelineApp(t *testing.T, name string) splash.App {
	t.Helper()
	a, err := splash.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestEntryPointsHonourChip runs every experiment entry point on every
// chip of the table and checks it against the run RunApp makes of the
// same configuration on the same chip: each entry point either simulates
// the rig's own chip or refuses it with ErrUnsupportedChip, never a
// silently substituted default chip.
func TestEntryPointsHonourChip(t *testing.T) {
	ctx := context.Background()
	fft := pipelineApp(t, "FFT")
	const n = 4
	for _, chip := range pipelineChips(t) {
		rig := pipelineRig(t, chip.sc)
		p := rig.Table.Nominal()
		ref, err := rig.RunApp(fft, n, p)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(chip.name+"/thrifty", func(t *testing.T) {
			th, err := rig.ThriftyBarrier(fft, n, p)
			if err != nil {
				t.Fatal(err)
			}
			if th.SpinPowerW != ref.PowerW || th.SpinEnergyJ != ref.PowerW*ref.Seconds {
				t.Errorf("spin leg %g W, %g J; RunApp %g W, %g J",
					th.SpinPowerW, th.SpinEnergyJ, ref.PowerW, ref.PowerW*ref.Seconds)
			}
		})
		t.Run(chip.name+"/cachesweep", func(t *testing.T) {
			cs, err := rig.CacheSweepL1(fft, []int{64}, []int{n})
			if err != nil {
				t.Fatal(err)
			}
			if got := cs.Rows[0].Seconds; got != ref.Seconds {
				t.Errorf("64 KB L1 sweep took %g s; RunApp %g s", got, ref.Seconds)
			}
		})
		t.Run(chip.name+"/transient", func(t *testing.T) {
			trace, err := rig.Transient(fft, n, p, experiment.DefaultTransientConfig())
			if err != nil {
				t.Fatal(err)
			}
			var cycles float64
			for _, pt := range trace {
				cycles += pt.EndCycle - pt.StartCycle
			}
			if cycles != ref.Cycles {
				t.Errorf("intervals cover %g cycles; RunApp %g", cycles, ref.Cycles)
			}
		})
		t.Run(chip.name+"/mix", func(t *testing.T) {
			mix, err := rig.Mix([]splash.App{fft}, p)
			if err != nil {
				t.Fatal(err)
			}
			if job := mix.Jobs[0]; job.MixSeconds != job.SoloSeconds {
				t.Errorf("one-job mix took %g s; solo %g s", job.MixSeconds, job.SoloSeconds)
			}
		})
		t.Run(chip.name+"/classify", func(t *testing.T) {
			st, err := rig.Classify(fft, n)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := rig.Simulate(ctx, fft, n, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			var clock float64
			var instr int64
			for _, c := range res.PerCore {
				clock += c.FinishClock
				instr += c.Instructions
			}
			if want := clock / float64(instr) * n; st.CPI != want {
				t.Errorf("classify CPI %g; the rig's run gives %g", st.CPI, want)
			}
		})
		t.Run(chip.name+"/placement", func(t *testing.T) {
			_, err := rig.Placement(fft, n)
			if chip.hetero {
				if !errors.Is(err, experiment.ErrUnsupportedChip) {
					t.Errorf("placement on a chip whose cores differ: err %v, want ErrUnsupportedChip", err)
				}
				return
			}
			if err != nil {
				t.Errorf("placement: %v", err)
			}
		})
		t.Run(chip.name+"/explore", func(t *testing.T) {
			radix := pipelineApp(t, "Radix")
			var opt explore.Option
			for _, o := range explore.StandardOptions() {
				if o.Name == "16x-ev6" {
					opt = o
				}
			}
			outs, err := explore.Explore(ctx, []splash.App{radix}, []explore.Option{opt}, chip.sc, pipelineScale, 1, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The option keeps the chip's global axes and clears its
			// islands and classes, as explore's option rigs do.
			var cleared *scenario.Scenario
			if chip.sc != nil {
				cleared = chip.sc.Clone()
				cleared.DVFS.Domains = nil
				cleared.Cores = scenario.CoresSpec{}
			}
			plain := pipelineRig(t, cleared)
			want, err := plain.RunApp(radix, 16, plain.Table.Nominal())
			if err != nil {
				t.Fatal(err)
			}
			if got := outs[0]; got.Seconds != want.Seconds || got.PowerW != want.PowerW {
				t.Errorf("16x-ev6 took %g s at %g W; RunApp at N=16 %g s at %g W",
					got.Seconds, got.PowerW, want.Seconds, want.PowerW)
			}
		})
	}
}

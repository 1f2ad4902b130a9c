package power

import (
	"testing"

	"cmppower/internal/dvfs"
	"cmppower/internal/floorplan"
	"cmppower/internal/phys"
	"cmppower/internal/thermal"
)

func heteroRig(t *testing.T) (*floorplan.Floorplan, *thermal.Model, *Meter, *dvfs.Table) {
	t.Helper()
	fp, err := floorplan.Chip(floorplan.DefaultChipConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := thermal.NewModel(fp, thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tech := phys.Tech65()
	m, err := NewMeter(tech)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := dvfs.PentiumMStyle(tech)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Calibrate(fp, tm, tab.Nominal()); err != nil {
		t.Fatal(err)
	}
	return fp, tm, m, tab
}

func sampleActivity(nCores, active int) *Activity {
	act := NewActivity(nCores)
	for c := 0; c < active; c++ {
		for _, u := range floorplan.CoreUnits() {
			act.AddCore(c, u, int64(1000*(c+1)))
		}
	}
	act.AddL2(5000)
	act.AddBus(2000)
	return act
}

// Uniform points must reproduce the chip-wide evaluation bit for bit: a
// leakage fixed point over DynamicBlockPower's watts with every block
// leaking at the lead supply, assembled here from the public pieces the
// way the benchmark harness rebuilds it. Every baseline output goes
// through the per-core loop with all cores at the lead point, so this
// guards the loop's expression order.
func TestHeteroMatchesChipWideOnUniformPoints(t *testing.T) {
	fp, tm, m, tab := heteroRig(t)
	act := sampleActivity(4, 4)
	lead := tab.Nominal()
	const cycles = 100000
	elapsed := float64(cycles) / lead.Freq
	active := []bool{true, true, true, true}
	points := []dvfs.OperatingPoint{lead, lead, lead, lead}

	dyn, err := m.DynamicBlockPower(fp, act, elapsed, cycles, lead, 4)
	if err != nil {
		t.Fatal(err)
	}
	leak := func(i int, tempC float64) float64 {
		return dyn[i] * m.BlockStaticFraction(-1, lead, nil, tempC)
	}
	temps, total, err := tm.SteadyStateCoupled(dyn, leak, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, eval := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"EvaluateHetero", func() (*Result, error) {
			return m.EvaluateHetero(fp, tm, act, elapsed, cycles, lead, points, active)
		}},
		{"Evaluate", func() (*Result, error) { return m.Evaluate(fp, tm, act, elapsed, cycles, lead, 4) }},
	} {
		got, err := eval.run()
		if err != nil {
			t.Fatal(err)
		}
		for i := range dyn {
			if got.BlockDyn[i] != dyn[i] || got.BlockTotal[i] != total[i] || got.TempC[i] != temps[i] {
				t.Fatalf("%s block %d: dyn/total/temp %g/%g/%g, chip-wide %g/%g/%g", eval.name, i,
					got.BlockDyn[i], got.BlockTotal[i], got.TempC[i], dyn[i], total[i], temps[i])
			}
		}
	}
}

// The leakage rule: a core block leaks at its own core's supply, a shared
// block at the lead supply, and the temperature is clamped to [ambient,
// 120 °C] first.
func TestBlockStaticFractionRule(t *testing.T) {
	_, _, m, tab := heteroRig(t)
	lead := tab.Nominal()
	slow := tab.PointFor(lead.Freq / 2)
	points := []dvfs.OperatingPoint{lead, slow}
	cases := []struct {
		name  string
		core  int
		tempC float64
		volt  float64
		seenC float64
	}{
		{"core at its own point", 1, 70, slow.Volt, 70},
		{"core at the lead point", 0, 70, lead.Volt, 70},
		{"shared block", -1, 70, lead.Volt, 70},
		{"core outside the point list", 2, 70, lead.Volt, 70},
		{"below ambient", 1, 10, slow.Volt, phys.AmbientTempC},
		{"above 120 °C", -1, 400, lead.Volt, 120},
	}
	for _, c := range cases {
		got := m.BlockStaticFraction(c.core, lead, points, c.tempC)
		if want := m.StaticFraction(c.volt, c.seenC); got != want {
			t.Errorf("%s: %g, want StaticFraction(%g V, %g °C) = %g", c.name, got, c.volt, c.seenC, want)
		}
	}
}

// Dropping one domain's supply must reduce chip power, and the slowed
// cores' blocks specifically.
func TestHeteroLowVoltDomainSavesPower(t *testing.T) {
	fp, tm, m, tab := heteroRig(t)
	act := sampleActivity(4, 4)
	lead := tab.Nominal()
	slow := tab.PointFor(lead.Freq / 2)
	const cycles = 100000
	elapsed := float64(cycles) / lead.Freq
	active := []bool{true, true, true, true}
	uniform := []dvfs.OperatingPoint{lead, lead, lead, lead}
	mixed := []dvfs.OperatingPoint{lead, lead, slow, slow}

	full, err := m.EvaluateHetero(fp, tm, act, elapsed, cycles, lead, uniform, active)
	if err != nil {
		t.Fatal(err)
	}
	part, err := m.EvaluateHetero(fp, tm, act, elapsed, cycles, lead, mixed, active)
	if err != nil {
		t.Fatal(err)
	}
	if part.TotalW >= full.TotalW {
		t.Errorf("low-volt domain did not save power: %g vs %g W", part.TotalW, full.TotalW)
	}
	for i, b := range fp.Blocks {
		switch {
		case b.Core == 2 || b.Core == 3:
			if part.BlockDyn[i] >= full.BlockDyn[i] {
				t.Errorf("slowed block %s dyn %g >= %g", b.Name, part.BlockDyn[i], full.BlockDyn[i])
			}
		case b.Core == 0 || b.Core == 1:
			if part.BlockDyn[i] != full.BlockDyn[i] {
				t.Errorf("lead block %s dyn changed: %g vs %g", b.Name, part.BlockDyn[i], full.BlockDyn[i])
			}
		}
	}
}

func TestHeteroValidatesPointCount(t *testing.T) {
	fp, tm, m, tab := heteroRig(t)
	act := sampleActivity(4, 4)
	lead := tab.Nominal()
	_, err := m.EvaluateHetero(fp, tm, act, 1e-3, 1000, lead,
		[]dvfs.OperatingPoint{lead}, []bool{true, true, true, true})
	if err == nil {
		t.Error("accepted short core point list")
	}
}

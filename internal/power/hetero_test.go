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

// Uniform points must reproduce the chip-wide path bit for bit: every
// baseline output goes through the per-core loop with all cores at the
// lead point, so this guards the loop's expression order.
func TestHeteroMatchesChipWideOnUniformPoints(t *testing.T) {
	fp, tm, m, tab := heteroRig(t)
	act := sampleActivity(4, 4)
	lead := tab.Nominal()
	const cycles = 100000
	elapsed := float64(cycles) / lead.Freq
	active := []bool{true, true, true, true}
	points := []dvfs.OperatingPoint{lead, lead, lead, lead}

	want, err := m.EvaluateSet(fp, tm, act, elapsed, cycles, lead, active)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.EvaluateHetero(fp, tm, act, elapsed, cycles, lead, points, active)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalW != want.TotalW || got.DynW != want.DynW || got.StaticW != want.StaticW {
		t.Errorf("uniform hetero differs: got %+v want %+v", got, want)
	}
	if got.PeakTempC != want.PeakTempC || got.AvgCoreTemp != want.AvgCoreTemp {
		t.Errorf("uniform hetero temps differ: got %g/%g want %g/%g",
			got.PeakTempC, got.AvgCoreTemp, want.PeakTempC, want.AvgCoreTemp)
	}
	for i := range got.BlockDyn {
		if got.BlockDyn[i] != want.BlockDyn[i] {
			t.Fatalf("block %d dyn differs: %g vs %g", i, got.BlockDyn[i], want.BlockDyn[i])
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

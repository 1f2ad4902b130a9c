package experiment

import (
	"testing"

	"cmppower/internal/scenario"
	"cmppower/internal/splash"
)

// peak returns the hottest entry.
func peak(temps []float64) float64 {
	var p float64
	for _, v := range temps {
		if v > p {
			p = v
		}
	}
	return p
}

// scaleShape scales a relative power shape to the given total watts.
func scaleShape(shape []float64, totalW float64) []float64 {
	var sum float64
	for _, v := range shape {
		sum += v
	}
	out := make([]float64, len(shape))
	for i, v := range shape {
		out[i] = v / sum * totalW
	}
	return out
}

func scenApp(t *testing.T, name string) splash.App {
	t.Helper()
	a, err := splash.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// Different scenarios must never share a memo entry: the digest is part
// of the key, so a 90nm chip's cached run cannot answer a 65nm request.
func TestScenarioDigestPreventsMemoCollision(t *testing.T) {
	a, err := NewRigFromScenario(scenario.Baseline(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario.Baseline()
	sc.Name = "90nm-variant"
	sc.Node = "90nm"
	b, err := NewRigFromScenario(sc, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if b.ScenarioDigest() == "" {
		t.Fatal("non-baseline scenario got empty digest")
	}
	ka := a.memoKeyFor("FMM", 4, a.Table.Nominal(), 1, nil)
	kb := b.memoKeyFor("FMM", 4, a.Table.Nominal(), 1, nil)
	if ka == kb {
		t.Error("memo keys collide across scenarios")
	}
	if a.SurrogateKey("FMM") == b.SurrogateKey("FMM") {
		t.Error("surrogate keys collide across scenarios")
	}
}

// A big/little scenario must run end-to-end, and the little cores must
// actually slow the chip versus the homogeneous baseline.
func TestScenarioBigLittleRuns(t *testing.T) {
	sc := scenario.Baseline()
	sc.Name = "biglittle-test"
	sc.Chip.TotalCores = 8
	sc.DVFS.Domains = []scenario.DomainSpec{
		{Name: "big", Cores: []int{0, 1, 2, 3}, SpeedRatio: 1},
		{Name: "little", Cores: []int{4, 5, 6, 7}, SpeedRatio: 0.5},
	}
	rig, err := NewRigFromScenario(sc, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rig.Domains == nil || rig.Domains.Len() != 2 {
		t.Fatal("domain set not built")
	}
	uniform := scenario.Baseline()
	uniform.Chip.TotalCores = 8
	base, err := NewRigFromScenario(uniform, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ap := scenApp(t, "FMM")
	p := rig.Table.Nominal()
	hetero, err := rig.RunApp(ap, 8, p)
	if err != nil {
		t.Fatal(err)
	}
	homo, err := base.RunApp(ap, 8, p)
	if err != nil {
		t.Fatal(err)
	}
	if hetero.Seconds <= homo.Seconds {
		t.Errorf("half-speed island did not slow the run: %g vs %g s", hetero.Seconds, homo.Seconds)
	}
	if hetero.PowerW >= homo.PowerW {
		t.Errorf("half-speed island did not cut power: %g vs %g W", hetero.PowerW, homo.PowerW)
	}
}

// A 3D-stacked scenario must run end-to-end and run hotter than the
// planar chip at equal power-relevant configuration.
func TestScenario3DStackRuns(t *testing.T) {
	sc := scenario.Baseline()
	sc.Name = "3dstack-test"
	sc.Chip.Layers = 4
	rig, err := NewRigFromScenario(sc, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.FP.Layers(); got != 4 {
		t.Fatalf("floorplan layers = %d, want 4", got)
	}
	// Yavits-style cap monotonicity within the stack: the same areal
	// power density on a buried die crosses the inter-die bonds before
	// reaching the sink, so it runs hotter than on the sink-adjacent
	// die — equivalently, the power that lands the chip at 100 °C is
	// lower when the work lives on a buried layer (the thermal knee
	// moves left for buried-die scheduling).
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
		t.Fatal(err)
	}
	_, buriedW, err := rig.TM.PowerForPeak(layerShape(top), 100)
	if err != nil {
		t.Fatal(err)
	}
	if buriedW >= sinkW {
		t.Errorf("buried-layer power cap %g W >= sink-adjacent %g W", buriedW, sinkW)
	}
	// Equal watts, directly compared: buried injection peaks hotter.
	const probeW = 20.0
	sinkT, err := rig.TM.SteadyState(scaleShape(layerShape(0), probeW))
	if err != nil {
		t.Fatal(err)
	}
	buriedT, err := rig.TM.SteadyState(scaleShape(layerShape(top), probeW))
	if err != nil {
		t.Fatal(err)
	}
	if peak(buriedT) <= peak(sinkT) {
		t.Errorf("buried die not hotter at %g W: %g °C vs %g °C", probeW, peak(buriedT), peak(sinkT))
	}
	ap := scenApp(t, "FMM")
	m, err := rig.RunApp(ap, 16, rig.Table.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if m.PeakTempC <= 0 || m.PowerW <= 0 {
		t.Errorf("degenerate 3D measurement: %+v", m)
	}
}

// A one-domain scenario must take the chip-wide DTM path and reproduce
// the baseline chip's controller stats exactly.
func TestDTMSingleDomainMatchesChipWide(t *testing.T) {
	sc := scenario.Baseline()
	sc.Name = "one-domain"
	sc.DVFS.Domains = []scenario.DomainSpec{
		{Name: "all", Cores: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, SpeedRatio: 1},
	}
	rig, err := NewRigFromScenario(sc, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	chipWide, err := NewRig(0.05)
	if err != nil {
		t.Fatal(err)
	}
	dtm := DefaultDTMConfig()
	rig.DTM, chipWide.DTM = &dtm, &dtm
	ap := scenApp(t, "FMM")
	// Overclock-ish request: top of ladder so the controller has work.
	p := rig.Table.Nominal()
	got, err := rig.RunApp(ap, 16, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := chipWide.RunApp(ap, 16, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.DTM == nil || want.DTM == nil {
		t.Fatal("DTM stats missing")
	}
	if *got.DTM != *want.DTM {
		t.Errorf("single-domain DTM differs from chip-wide:\n got %+v\nwant %+v", got.DTM, want.DTM)
	}
}

// Multi-domain DTM must run end-to-end and produce sane stats.
func TestDTMMultiDomainRuns(t *testing.T) {
	sc := scenario.Baseline()
	sc.Name = "dtm-domains"
	sc.Chip.TotalCores = 8
	sc.DVFS.Domains = []scenario.DomainSpec{
		{Name: "big", Cores: []int{0, 1, 2, 3}, SpeedRatio: 1},
		{Name: "little", Cores: []int{4, 5, 6, 7}, SpeedRatio: 0.5},
	}
	rig, err := NewRigFromScenario(sc, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dtm := DefaultDTMConfig()
	rig.DTM = &dtm
	ap := scenApp(t, "FMM")
	m, err := rig.RunApp(ap, 8, rig.Table.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if m.DTM == nil {
		t.Fatal("multi-domain DTM stats missing")
	}
	if m.DTM.PeakTempC <= 0 || m.DTM.ThrottleResidency < 0 || m.DTM.ThrottleResidency > 1 {
		t.Errorf("degenerate multi-domain DTM stats: %+v", m.DTM)
	}
}

// CapScale must shift pre-calibration energies but cancel after
// calibration at the same node; different nodes calibrate differently.
func TestScenarioTechnologyAxis(t *testing.T) {
	for _, node := range []string{"130nm", "90nm", "65nm"} {
		sc := scenario.Baseline()
		sc.Name = "tech-" + node
		sc.Node = node
		rig, err := NewRigFromScenario(sc, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", node, err)
		}
		m, err := rig.RunApp(scenApp(t, "FMM"), 2, rig.Table.Nominal())
		if err != nil {
			t.Fatalf("%s: %v", node, err)
		}
		if m.PowerW <= 0 || m.Seconds <= 0 {
			t.Errorf("%s: degenerate measurement %+v", node, m)
		}
	}
}

// Scenario II profiles at most six ladder points per budget-bound row, so
// a scenario with a fine ladder does not multiply a row's profiling runs;
// the shipped 16-point ladder keeps its every-third-point grid.
func TestProfileGridBounded(t *testing.T) {
	coarse, err := NewRigFromScenario(scenario.Baseline(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	pts := coarse.Table.Points()
	if len(pts) != 16 {
		t.Fatalf("baseline ladder has %d points, want 16", len(pts))
	}
	grid := coarse.profilePoints()
	for i, p := range grid {
		if p != pts[3*i] {
			t.Fatalf("16-point grid point %d is %v, want ladder point %d", i, p.Freq, 3*i)
		}
	}
	if len(grid) != 6 {
		t.Fatalf("16-point ladder profiles %d points, want 6", len(grid))
	}

	sc := scenario.Baseline()
	sc.Name = "fine-ladder"
	sc.DVFS.LadderStepMHz = 0.75
	fine, err := NewRigFromScenario(sc, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fine.Table.Points()); n != 4001 {
		t.Fatalf("fine ladder has %d points, want 4001", n)
	}
	fineGrid := fine.profilePoints()
	if len(fineGrid) > len(grid) {
		t.Errorf("4001-point ladder profiles %d points, more than the 16-point ladder's %d", len(fineGrid), len(grid))
	}
	if fineGrid[0] != fine.Table.Min() || fineGrid[len(fineGrid)-1] != fine.Table.Nominal() {
		t.Errorf("fine grid spans %v..%v, want the whole ladder", fineGrid[0].Freq, fineGrid[len(fineGrid)-1].Freq)
	}
	app, err := splash.ByName("FMM")
	if err != nil {
		t.Fatal(err)
	}
	res, err := fine.ScenarioII(app, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	if row := res.Rows[0]; row.Point.Freq >= fine.Table.Nominal().Freq {
		t.Errorf("N=16 row runs at %v, want a budget-bound row below nominal", row.Point.Freq)
	}
}

package experiment

import (
	"math"
	"testing"

	"cmppower/internal/phys"
	"cmppower/internal/scenario"
	"cmppower/internal/splash"
)

// testRig builds a small-scale rig shared by the tests in this file.
func testRig(t *testing.T) *Rig {
	t.Helper()
	rig, err := NewRig(0.15)
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

func app(t *testing.T, name string) splash.App {
	t.Helper()
	a, err := splash.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRigValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN()} {
		if _, err := NewRig(bad); err == nil {
			t.Errorf("accepted scale %g", bad)
		}
	}
}

func TestRigCalibration(t *testing.T) {
	rig := testRig(t)
	if rig.BudgetW() <= 0 {
		t.Fatalf("budget %g", rig.BudgetW())
	}
	if rig.Cal.Renorm <= 0 {
		t.Fatal("renormalization not applied")
	}
	if rig.Table.Nominal().Freq != 3.2e9 {
		t.Fatalf("nominal frequency %g", rig.Table.Nominal().Freq)
	}
}

func TestRunAppBasics(t *testing.T) {
	rig := testRig(t)
	m, err := rig.RunApp(app(t, "FFT"), 4, rig.Table.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if m.Seconds <= 0 || m.PowerW <= 0 || m.Instructions <= 0 {
		t.Fatalf("degenerate measurement %+v", m)
	}
	if m.AvgCoreTempC < phys.AmbientTempC || m.AvgCoreTempC > phys.MaxDieTempC+20 {
		t.Errorf("temperature %g implausible", m.AvgCoreTempC)
	}
	if m.DynW+m.StaticW-m.PowerW > 1e-9*m.PowerW {
		t.Error("power split inconsistent")
	}
}

func TestRunAppRespectsThreadRestrictions(t *testing.T) {
	rig := testRig(t)
	if _, err := rig.RunApp(app(t, "LU"), 6, rig.Table.Nominal()); err == nil {
		t.Error("LU on 6 cores should be rejected (power-of-two only)")
	}
}

func TestScenarioIShape(t *testing.T) {
	rig := testRig(t)
	res, err := rig.ScenarioI(app(t, "Water-Nsq"), []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline == nil || res.Baseline.N != 1 {
		t.Fatal("missing single-core baseline")
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (N=1 is the baseline)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.NominalEff <= 0 || row.NominalEff > 1.5 {
			t.Errorf("N=%d: efficiency %g implausible", row.N, row.NominalEff)
		}
		// The performance target is the baseline; the scaled run must not
		// be slower than ~20% below it (discretization slack), and for
		// this chip-level-DVFS system it is usually faster.
		if row.ActualSpeedup < 0.8 {
			t.Errorf("N=%d: actual speedup %g below the performance target", row.N, row.ActualSpeedup)
		}
		// Frequency must be scaled down from nominal for N >= 2.
		if row.Point.Freq >= rig.Table.Nominal().Freq {
			t.Errorf("N=%d: operating point not scaled (%v)", row.N, row.Point)
		}
		if row.NormPower <= 0 {
			t.Errorf("N=%d: no power measured", row.N)
		}
		if row.AvgTempC < phys.AmbientTempC-1 {
			t.Errorf("N=%d: temperature below ambient", row.N)
		}
	}
}

func TestScenarioIPowerSavings(t *testing.T) {
	// A scalable compute app must save power at 4-8 cores and reduce power
	// density drastically — the paper's §4.1 headline.
	rig := testRig(t)
	res, err := rig.ScenarioI(app(t, "Barnes"), []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.NormPower >= 1 {
			t.Errorf("N=%d: normalized power %g, expected savings", row.N, row.NormPower)
		}
		if row.NormDensity >= 0.5 {
			t.Errorf("N=%d: power density %g, expected a sharp drop", row.N, row.NormDensity)
		}
		if row.AvgTempC >= res.Baseline.AvgCoreTempC {
			t.Errorf("N=%d: temperature did not fall (%g vs %g)", row.N, row.AvgTempC, res.Baseline.AvgCoreTempC)
		}
	}
}

func TestScenarioIMemoryBoundSpeedup(t *testing.T) {
	// Memory-bound applications get an actual speedup well above 1 in
	// Scenario I because the 75 ns memory shrinks in cycles at the scaled
	// frequency (paper §4.1).
	rig := testRig(t)
	res, err := rig.ScenarioI(app(t, "Radix"), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if got := res.Rows[0].ActualSpeedup; got < 1.1 {
		t.Errorf("Radix actual speedup %g, want > 1.1 (memory-gap effect)", got)
	}
}

func TestScenarioIEmptyCounts(t *testing.T) {
	rig := testRig(t)
	if _, err := rig.ScenarioI(app(t, "FFT"), nil); err == nil {
		t.Error("accepted empty core counts")
	}
	if _, err := rig.ScenarioII(app(t, "FFT"), nil); err == nil {
		t.Error("accepted empty core counts")
	}
}

func TestScenarioIIBudgetAndGap(t *testing.T) {
	rig := testRig(t)
	res, err := rig.ScenarioII(app(t, "FMM"), []int{1, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ActualSpeedup > row.NominalSpeedup*1.02 {
			t.Errorf("N=%d: actual %g above nominal %g", row.N, row.ActualSpeedup, row.NominalSpeedup)
		}
		if !row.AtNominal && row.PowerW > res.BudgetW*1.05 {
			t.Errorf("N=%d: power %g exceeds budget %g", row.N, row.PowerW, res.BudgetW)
		}
	}
	// FMM at 8 cores cannot run at nominal within a single-core budget.
	last := res.Rows[2]
	if last.AtNominal {
		t.Error("compute-bound FMM at 8 cores should be budget-limited")
	}
	if last.ActualSpeedup >= last.NominalSpeedup {
		t.Error("expected a nominal-vs-actual gap for FMM at 8 cores")
	}
}

func TestScenarioIIRadixRunsAtNominal(t *testing.T) {
	// The paper's Radix observation: a power-thrifty memory-bound app fits
	// the budget at nominal V/f for moderate core counts.
	rig := testRig(t)
	res, err := rig.ScenarioII(app(t, "Radix"), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.AtNominal {
			t.Errorf("Radix at N=%d should run at nominal within budget (power %g, budget %g)",
				row.N, row.PowerW, res.BudgetW)
		}
		if math.Abs(row.ActualSpeedup-row.NominalSpeedup) > 1e-9 {
			t.Errorf("N=%d: at-nominal rows must have actual == nominal", row.N)
		}
	}
}

func TestScenarioIIGapOrdering(t *testing.T) {
	// The gap is most significant for the compute-intensive app (FMM) and
	// least for the memory-bound one (Radix) — paper Fig. 4.
	rig := testRig(t)
	gap := func(name string) float64 {
		res, err := rig.ScenarioII(app(t, name), []int{8})
		if err != nil {
			t.Fatal(err)
		}
		row := res.Rows[0]
		return (row.NominalSpeedup - row.ActualSpeedup) / row.NominalSpeedup
	}
	fmm, radix := gap("FMM"), gap("Radix")
	if fmm <= radix {
		t.Errorf("FMM relative gap %g should exceed Radix %g", fmm, radix)
	}
}

func TestSystemWideDVFSAblation(t *testing.T) {
	// With system-wide scaling, Scenario I's memory-gap bonus disappears:
	// actual speedup collapses toward 1.
	chipOnly := testRig(t)
	system, err := NewRig(0.15)
	if err != nil {
		t.Fatal(err)
	}
	system.ScaleMemoryWithChip = true

	a := app(t, "Radix")
	r1, err := chipOnly.ScenarioI(a, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := system.ScenarioI(a, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) == 0 || len(r2.Rows) == 0 {
		t.Fatal("missing rows")
	}
	if r2.Rows[0].ActualSpeedup >= r1.Rows[0].ActualSpeedup {
		t.Errorf("system-wide DVFS should remove the memory-gap bonus: %g vs %g",
			r2.Rows[0].ActualSpeedup, r1.Rows[0].ActualSpeedup)
	}
}

func TestQuantizedLadderCostsPerformance(t *testing.T) {
	// Scenario II on the discrete ladder can never beat the interpolated
	// ladder: quantization only ever steps down.
	interp := testRig(t)
	sc := scenario.Baseline()
	sc.DVFS.Quantize = true
	quant, err := NewRigFromScenario(sc, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	a := app(t, "FMM")
	ri, err := interp.ScenarioII(a, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	rq, err := quant.ScenarioII(a, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if rq.Rows[0].ActualSpeedup > ri.Rows[0].ActualSpeedup*1.001 {
		t.Errorf("quantized speedup %g beats interpolated %g",
			rq.Rows[0].ActualSpeedup, ri.Rows[0].ActualSpeedup)
	}
	// The chosen quantized point sits on a 200 MHz step.
	fMHz := rq.Rows[0].Point.Freq / 1e6
	if fMHz != float64(int(fMHz/200))*200 {
		t.Errorf("quantized point %g MHz not on the ladder", fMHz)
	}
}

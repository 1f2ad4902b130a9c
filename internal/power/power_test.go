package power

import (
	"math"
	"testing"

	"cmppower/internal/dvfs"
	"cmppower/internal/floorplan"
	"cmppower/internal/phys"
	"cmppower/internal/thermal"
)

type rig struct {
	fp    *floorplan.Floorplan
	tm    *thermal.Model
	tab   *dvfs.Table
	meter *Meter
}

func newRig(t *testing.T, nCores int) *rig {
	t.Helper()
	fp, err := floorplan.Chip(floorplan.DefaultChipConfig(nCores))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := thermal.NewModel(fp, thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := dvfs.PentiumMStyle(phys.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMeter(phys.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	return &rig{fp: fp, tm: tm, tab: tab, meter: m}
}

func TestActivityAccounting(t *testing.T) {
	a := NewActivity(4)
	if a.NCores() != 4 {
		t.Fatalf("NCores=%d", a.NCores())
	}
	a.AddCore(2, floorplan.UnitIALU, 10)
	a.AddCore(2, floorplan.UnitIALU, 5)
	a.AddL2(7)
	a.AddBus(3)
	if got := a.CoreCount(2, floorplan.UnitIALU); got != 15 {
		t.Errorf("CoreCount=%d", got)
	}
	if a.L2Count() != 7 || a.BusCount() != 3 {
		t.Errorf("shared counts L2=%d bus=%d", a.L2Count(), a.BusCount())
	}
	if got := a.Total(); got != 25 {
		t.Errorf("Total=%d, want 25", got)
	}
}

func TestMaxActivityShape(t *testing.T) {
	a := MaxActivity(16, 2, 1000)
	for c := 0; c < 2; c++ {
		for _, u := range floorplan.CoreUnits() {
			if a.CoreCount(c, u) <= 0 {
				t.Fatalf("core %d unit %s = %d", c, u, a.CoreCount(c, u))
			}
		}
		// The microbenchmark saturates a 4-wide front end: per-instruction
		// units must see multiple accesses per cycle.
		if got := a.CoreCount(c, floorplan.UnitFetch); got <= 1000 {
			t.Errorf("core %d fetch activity %d should exceed cycle count", c, got)
		}
	}
	if a.CoreCount(2, floorplan.UnitIALU) != 0 {
		t.Error("inactive core has activity")
	}
}

func TestDynamicBlockPowerBasics(t *testing.T) {
	r := newRig(t, 16)
	op := r.tab.Nominal()
	const cycles = 1 << 16
	elapsed := float64(cycles) / op.Freq
	act := MaxActivity(16, 4, cycles)
	dyn, err := r.meter.DynamicBlockPower(r.fp, act, elapsed, cycles, op, 4)
	if err != nil {
		t.Fatal(err)
	}
	var active, inactive float64
	for i, b := range r.fp.Blocks {
		if b.Core >= 0 && b.Core < 4 {
			active += dyn[i]
		}
		if b.Core >= 4 {
			inactive += dyn[i]
		}
	}
	if active <= 0 {
		t.Error("no power for active cores")
	}
	if inactive != 0 {
		t.Errorf("powered-off cores burn %g W", inactive)
	}
}

func TestDynamicBlockPowerValidation(t *testing.T) {
	r := newRig(t, 4)
	op := r.tab.Nominal()
	act := NewActivity(4)
	if _, err := r.meter.DynamicBlockPower(r.fp, act, 0, 100, op, 4); err == nil {
		t.Error("accepted zero elapsed")
	}
	if _, err := r.meter.DynamicBlockPower(r.fp, act, 1, 0, op, 4); err == nil {
		t.Error("accepted zero cycles")
	}
	small := NewActivity(2)
	if _, err := r.meter.DynamicBlockPower(r.fp, small, 1, 100, op, 4); err == nil {
		t.Error("accepted undersized activity record")
	}
}

func TestDynamicPowerScalesWithVF(t *testing.T) {
	r := newRig(t, 16)
	const cycles = 1 << 16
	nom := r.tab.Nominal()
	low := r.tab.Min()
	act := MaxActivity(16, 1, cycles)

	dynNom, err := r.meter.DynamicBlockPower(r.fp, act, float64(cycles)/nom.Freq, cycles, nom, 1)
	if err != nil {
		t.Fatal(err)
	}
	dynLow, err := r.meter.DynamicBlockPower(r.fp, act, float64(cycles)/low.Freq, cycles, low, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pNom, pLow float64
	for i := range dynNom {
		pNom += dynNom[i]
		pLow += dynLow[i]
	}
	// Expected ratio = (V²f) scaling.
	want := (low.Volt / nom.Volt) * (low.Volt / nom.Volt) * (low.Freq / nom.Freq)
	got := pLow / pNom
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("dynamic scaling = %g, want %g", got, want)
	}
}

func TestGateResidualCharged(t *testing.T) {
	r := newRig(t, 4)
	op := r.tab.Nominal()
	const cycles = 1 << 16
	elapsed := float64(cycles) / op.Freq
	idle := NewActivity(4) // no accesses at all
	dyn, err := r.meter.DynamicBlockPower(r.fp, idle, elapsed, cycles, op, 1)
	if err != nil {
		t.Fatal(err)
	}
	var core0 float64
	for i, b := range r.fp.Blocks {
		if b.Core == 0 {
			core0 += dyn[i]
		}
	}
	if core0 <= 0 {
		t.Error("idle active core should burn gate residual power")
	}
	busy := MaxActivity(4, 1, cycles)
	dynBusy, err := r.meter.DynamicBlockPower(r.fp, busy, elapsed, cycles, op, 1)
	if err != nil {
		t.Fatal(err)
	}
	var core0Busy float64
	for i, b := range r.fp.Blocks {
		if b.Core == 0 {
			core0Busy += dynBusy[i]
		}
	}
	if core0 >= core0Busy {
		t.Errorf("idle power %g >= busy power %g", core0, core0Busy)
	}
	// The idle core burns a small fraction of the saturated one.
	if ratio := core0 / core0Busy; ratio > 2*r.meter.GateResidual {
		t.Errorf("idle/busy ratio %g implausibly high (residual %g)", ratio, r.meter.GateResidual)
	}
}

func TestStaticFractionTraits(t *testing.T) {
	r := newRig(t, 16)
	tech := r.meter.Tech()
	// At the design point the fraction reproduces the technology's
	// hot static/dynamic ratio exactly.
	atDesign := r.meter.StaticFraction(tech.Vdd, 100)
	if math.Abs(atDesign-tech.StaticDynRatioHot()) > 1e-12 {
		t.Errorf("design-point fraction %g, want %g", atDesign, tech.StaticDynRatioHot())
	}
	// Exponential temperature dependence: cooler die, smaller fraction.
	cool := r.meter.StaticFraction(tech.Vdd, 50)
	if cool >= atDesign {
		t.Errorf("fraction should fall with temperature: %g >= %g", cool, atDesign)
	}
	// Doubling per 40 °C, inherited from the leakage fit.
	f60 := r.meter.StaticFraction(tech.Vdd, 60)
	f100 := r.meter.StaticFraction(tech.Vdd, 100)
	if math.Abs(f100/f60-2) > 1e-9 {
		t.Errorf("fraction ratio over 40 °C = %g, want 2", f100/f60)
	}
	// The fraction stays positive and finite across the voltage range.
	for _, v := range []float64{tech.Vmin(), 0.8, tech.Vdd} {
		if fr := r.meter.StaticFraction(v, 70); fr <= 0 || math.IsInf(fr, 0) {
			t.Errorf("fraction at V=%g is %g", v, fr)
		}
	}
}

func TestCalibrateSetsRenormAndBudget(t *testing.T) {
	r := newRig(t, 16)
	cal, err := r.meter.Calibrate(r.fp, r.tm, r.tab.Nominal())
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if cal.MaxOperationalW <= 0 || cal.MaxDynamicW <= 0 || cal.RawWattchW <= 0 {
		t.Fatalf("non-positive calibration: %+v", cal)
	}
	if cal.MaxDynamicW >= cal.MaxOperationalW {
		t.Error("dynamic component should be below total")
	}
	if math.Abs(r.meter.Renorm-cal.Renorm) > 1e-12 {
		t.Error("meter Renorm not installed")
	}
	wantShare := 1 - r.meter.Tech().StaticShare
	if math.Abs(cal.MaxDynamicW/cal.MaxOperationalW-wantShare) > 1e-9 {
		t.Errorf("dynamic share = %g, want %g", cal.MaxDynamicW/cal.MaxOperationalW, wantShare)
	}
}

func TestEvaluateBreakdownConsistency(t *testing.T) {
	r := newRig(t, 16)
	if _, err := r.meter.Calibrate(r.fp, r.tm, r.tab.Nominal()); err != nil {
		t.Fatal(err)
	}
	op := r.tab.Quantize(1.6e9)
	const cycles = 1 << 18
	act := MaxActivity(16, 8, cycles)
	res, err := r.meter.Evaluate(r.fp, r.tm, act, float64(cycles)/op.Freq, cycles, op, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TotalW-(res.DynW+res.StaticW)) > 1e-9*res.TotalW {
		t.Errorf("TotalW %g != Dyn %g + Static %g", res.TotalW, res.DynW, res.StaticW)
	}
	if res.StaticW <= 0 {
		t.Error("no static power at all")
	}
	if res.AvgCoreTemp <= phys.AmbientTempC || res.AvgCoreTemp > res.PeakTempC {
		t.Errorf("avg core temp %g outside (ambient, peak=%g]", res.AvgCoreTemp, res.PeakTempC)
	}
	if res.CoreDensity <= 0 {
		t.Error("zero core power density")
	}
	var blockSum float64
	for _, p := range res.BlockTotal {
		blockSum += p
	}
	if math.Abs(blockSum-res.TotalW) > 1e-9*res.TotalW {
		t.Errorf("block sum %g != TotalW %g", blockSum, res.TotalW)
	}
}

func TestEvaluateMismatchedModel(t *testing.T) {
	r := newRig(t, 4)
	other, err := floorplan.Chip(floorplan.DefaultChipConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.meter.Evaluate(other, r.tm, NewActivity(4), 1, 100, r.tab.Nominal(), 2); err == nil {
		t.Error("accepted mismatched floorplan/thermal model")
	}
	if _, err := r.meter.Calibrate(other, r.tm, r.tab.Nominal()); err == nil {
		t.Error("Calibrate accepted mismatched floorplan/thermal model")
	}
}

func TestMoreCoresAtScaledVFBurnLessThanOneHot(t *testing.T) {
	// The paper's Scenario I intuition end-to-end at the power layer: 8
	// cores at a deeply scaled operating point should burn less total power
	// than 1 core flat out, for the same total work rate.
	r := newRig(t, 16)
	if _, err := r.meter.Calibrate(r.fp, r.tm, r.tab.Nominal()); err != nil {
		t.Fatal(err)
	}
	nom := r.tab.Nominal()
	const cycles = 1 << 18
	one := MaxActivity(16, 1, cycles)
	resOne, err := r.meter.Evaluate(r.fp, r.tm, one, float64(cycles)/nom.Freq, cycles, nom, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 8 cores at 1/8 the frequency: same aggregate instruction throughput.
	low := r.tab.Quantize(nom.Freq / 8)
	eight := MaxActivity(16, 8, cycles)
	resEight, err := r.meter.Evaluate(r.fp, r.tm, eight, float64(cycles)/low.Freq, cycles, low, 8)
	if err != nil {
		t.Fatal(err)
	}
	if resEight.TotalW >= resOne.TotalW {
		t.Errorf("8 cores scaled (%g W) should beat 1 core hot (%g W)", resEight.TotalW, resOne.TotalW)
	}
	if resEight.CoreDensity >= resOne.CoreDensity {
		t.Errorf("power density should drop: %g vs %g", resEight.CoreDensity, resOne.CoreDensity)
	}
	if resEight.AvgCoreTemp >= resOne.AvgCoreTemp {
		t.Errorf("temperature should drop: %g vs %g", resEight.AvgCoreTemp, resOne.AvgCoreTemp)
	}
}

func TestSleepResidualLowersIdlePower(t *testing.T) {
	r := newRig(t, 4)
	op := r.tab.Nominal()
	const cycles = 1 << 16
	elapsed := float64(cycles) / op.Freq
	idle := NewActivity(4)
	dynSpin, err := r.meter.DynamicBlockPower(r.fp, idle, elapsed, cycles, op, 1)
	if err != nil {
		t.Fatal(err)
	}
	asleep := NewActivity(4)
	asleep.AddSleep(0, cycles)
	dynSleep, err := r.meter.DynamicBlockPower(r.fp, asleep, elapsed, cycles, op, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pSpin, pSleep float64
	for i, b := range r.fp.Blocks {
		if b.Core == 0 {
			pSpin += dynSpin[i]
			pSleep += dynSleep[i]
		}
	}
	wantRatio := r.meter.SleepResidual / r.meter.GateResidual
	if got := pSleep / pSpin; math.Abs(got-wantRatio) > 1e-9 {
		t.Errorf("sleep/spin power ratio %g, want %g", got, wantRatio)
	}
}

func TestEvaluateRejectsBadInterval(t *testing.T) {
	r := newRig(t, 4)
	act := NewActivity(4)
	if _, err := r.meter.Evaluate(r.fp, r.tm, act, 0, 100, r.tab.Nominal(), 2); err == nil {
		t.Error("accepted zero elapsed")
	}
}

func TestCalibrateIdempotentRatio(t *testing.T) {
	// Calibrating twice must produce the same renormalization (the raw
	// microbenchmark is measured with Renorm forced to 1).
	r := newRig(t, 16)
	c1, err := r.meter.Calibrate(r.fp, r.tm, r.tab.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := r.meter.Calibrate(r.fp, r.tm, r.tab.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c1.Renorm-c2.Renorm) > 1e-12 {
		t.Errorf("calibration drifted: %g vs %g", c1.Renorm, c2.Renorm)
	}
}

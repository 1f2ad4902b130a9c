package dvfs

import (
	"math"
	"testing"
	"testing/quick"

	"cmppower/internal/phys"
)

func mustPentiumM(t *testing.T) *Table {
	t.Helper()
	tab, err := PentiumMStyle(phys.Tech65())
	if err != nil {
		t.Fatalf("PentiumMStyle: %v", err)
	}
	return tab
}

func TestPentiumMLadderShape(t *testing.T) {
	tab := mustPentiumM(t)
	if got := tab.Len(); got != 16 {
		t.Fatalf("ladder length = %d, want 16 (200 MHz .. 3.2 GHz)", got)
	}
	if got := tab.Min().Freq; got != 200e6 {
		t.Errorf("min freq = %g, want 200 MHz", got)
	}
	if got := tab.Nominal().Freq; got != 3.2e9 {
		t.Errorf("nominal freq = %g, want 3.2 GHz", got)
	}
	if got := tab.Nominal().Volt; math.Abs(got-1.1) > 1e-9 {
		t.Errorf("nominal volt = %g, want 1.1", got)
	}
}

func TestLadderMonotone(t *testing.T) {
	tab := mustPentiumM(t)
	pts := tab.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].Freq <= pts[i-1].Freq {
			t.Fatalf("frequencies not strictly ascending at %d", i)
		}
		if pts[i].Volt < pts[i-1].Volt-1e-12 {
			t.Fatalf("voltages not non-decreasing at %d: %v -> %v", i, pts[i-1], pts[i])
		}
	}
}

func TestLadderHasVminFloor(t *testing.T) {
	tab := mustPentiumM(t)
	tech := phys.Tech65()
	low := tab.Min()
	if math.Abs(low.Volt-tech.Vmin()) > 1e-9 {
		t.Errorf("200 MHz point volt=%g, want Vmin=%g (frequency-only region)", low.Volt, tech.Vmin())
	}
	// There must be at least two distinct steps pinned at Vmin: that is the
	// frequency-only scaling region central to Scenario II.
	floorCount := 0
	for _, p := range tab.Points() {
		if math.Abs(p.Volt-tech.Vmin()) < 1e-9 {
			floorCount++
		}
	}
	if floorCount < 2 {
		t.Errorf("only %d ladder steps at Vmin; expected a frequency-only region", floorCount)
	}
}

func TestNewTableRejectsBadArgs(t *testing.T) {
	tech := phys.Tech65()
	cases := []struct{ fmin, fmax, step float64 }{
		{0, 1e9, 1e8},
		{-1, 1e9, 1e8},
		{1e9, 5e8, 1e8},
		{1e8, 1e9, 0},
		{1e8, 1e9, -5},
	}
	for _, c := range cases {
		if _, err := NewTable(tech, c.fmin, c.fmax, c.step); err == nil {
			t.Errorf("NewTable(%v) accepted invalid args", c)
		}
	}
	bad := tech
	bad.Vdd = 0
	if _, err := NewTable(bad, 2e8, 3.2e9, 2e8); err == nil {
		t.Error("NewTable accepted invalid technology")
	}
}

func TestNewTableClampsToNominal(t *testing.T) {
	tech := phys.Tech65()
	tab, err := NewTable(tech, 1e9, 99e9, 1e9)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if got := tab.Nominal().Freq; got != tech.FNominal {
		t.Errorf("nominal=%g, want clamp to %g", got, tech.FNominal)
	}
}

func TestNewTableAlwaysIncludesTopPoint(t *testing.T) {
	tech := phys.Tech65()
	// Step that does not divide the range evenly: top point must be added.
	tab, err := NewTable(tech, 500e6, tech.FNominal, 700e6)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if got := tab.Nominal().Freq; got != tech.FNominal {
		t.Errorf("nominal=%g, want %g appended", got, tech.FNominal)
	}
}

func TestPointForInterpolates(t *testing.T) {
	tab := mustPentiumM(t)
	pts := tab.Points()
	mid := (pts[8].Freq + pts[9].Freq) / 2
	p := tab.PointFor(mid)
	if p.Freq != mid {
		t.Errorf("PointFor freq=%g, want %g", p.Freq, mid)
	}
	if p.Volt <= pts[8].Volt || p.Volt >= pts[9].Volt {
		t.Errorf("interpolated volt %g not inside (%g,%g)", p.Volt, pts[8].Volt, pts[9].Volt)
	}
}

func TestPointForClamps(t *testing.T) {
	tab := mustPentiumM(t)
	if p := tab.PointFor(1); p != tab.Min() {
		t.Errorf("PointFor(1)=%v, want min %v", p, tab.Min())
	}
	if p := tab.PointFor(1e12); p != tab.Nominal() {
		t.Errorf("PointFor(1e12)=%v, want nominal %v", p, tab.Nominal())
	}
}

// TestDegenerateTargets pins the clamping contract for targets outside
// the ladder or not even finite: an Eq. 7 target below the ladder floors,
// one above nominal (or +Inf) runs flat out, and a NaN target — a
// degenerate efficiency measurement — clamps to nominal instead of
// producing a NaN voltage or panicking.
func TestDegenerateTargets(t *testing.T) {
	tab := mustPentiumM(t)
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		f    float64
		want OperatingPoint
	}{
		{"NaN", nan, tab.Nominal()},
		{"+Inf", math.Inf(1), tab.Nominal()},
		{"-Inf", math.Inf(-1), tab.Min()},
		{"zero", 0, tab.Min()},
		{"negative", -3.2e9, tab.Min()},
		{"exact-min", tab.Min().Freq, tab.Min()},
		{"exact-nominal", tab.Nominal().Freq, tab.Nominal()},
	} {
		if p := tab.PointFor(tc.f); p != tc.want {
			t.Errorf("PointFor(%s)=%v, want %v", tc.name, p, tc.want)
		}
		if math.IsNaN(tab.PointFor(tc.f).Volt) {
			t.Errorf("PointFor(%s) produced NaN voltage", tc.name)
		}
	}
	if q := tab.Quantize(nan); q != tab.Nominal() {
		t.Errorf("Quantize(NaN)=%v, want nominal", q)
	}
	if q := tab.Quantize(math.Inf(1)); q != tab.Nominal() {
		t.Errorf("Quantize(+Inf)=%v, want nominal", q)
	}
	if q := tab.Quantize(math.Inf(-1)); q != tab.Min() {
		t.Errorf("Quantize(-Inf)=%v, want min", q)
	}
	// Exact rung frequencies must come back exactly, not interpolated.
	for _, p := range tab.Points() {
		if got := tab.PointFor(p.Freq); got != p {
			t.Errorf("PointFor(rung %v)=%v", p, got)
		}
		if got := tab.Quantize(p.Freq); got != p {
			t.Errorf("Quantize(rung %v)=%v", p, got)
		}
	}
}

func TestQuantizeAndStepAbove(t *testing.T) {
	tab := mustPentiumM(t)
	q := tab.Quantize(1.9e9)
	if q.Freq != 1.8e9 {
		t.Errorf("Quantize(1.9GHz)=%v, want 1.8 GHz step", q)
	}
	if q := tab.Quantize(200e6); q.Freq != 200e6 {
		t.Errorf("Quantize(exact)=%v", q)
	}
	if q := tab.Quantize(1); q.Freq != 200e6 {
		t.Errorf("Quantize(below)=%v, want lowest", q)
	}
	if s := tab.StepAbove(1.9e9); s.Freq != 2.0e9 {
		t.Errorf("StepAbove(1.9GHz)=%v, want 2.0 GHz", s)
	}
	if s := tab.StepAbove(9e9); s.Freq != 3.2e9 {
		t.Errorf("StepAbove(above)=%v, want top", s)
	}
}

func TestSettingCycleMath(t *testing.T) {
	tab := mustPentiumM(t)
	s := &Setting{Point: tab.Nominal(), Nominal: tab.Nominal()}
	if got := s.SpeedRatio(); got != 1 {
		t.Errorf("nominal SpeedRatio=%g", got)
	}
}

func TestSpeedRatioTable(t *testing.T) {
	tab := mustPentiumM(t)
	if got := tab.SpeedRatio(tab.Min()); math.Abs(got-200e6/3.2e9) > 1e-12 {
		t.Errorf("SpeedRatio(min)=%g", got)
	}
}

func TestOperatingPointString(t *testing.T) {
	p := OperatingPoint{Freq: 1.6e9, Volt: 0.9}
	if s := p.String(); s == "" {
		t.Fatal("empty String")
	}
}

// Property: PointFor(f) voltage is always achievable for f (FMax >= f) and
// within the physical range.
func TestQuickPointForPhysical(t *testing.T) {
	tab := mustPentiumM(t)
	tech := tab.Tech()
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		frac := math.Abs(x)
		frac -= math.Floor(frac)
		target := tab.Min().Freq + frac*(tab.Nominal().Freq-tab.Min().Freq)
		p := tab.PointFor(target)
		return tech.FMax(p.Volt) >= p.Freq*(1-1e-3) &&
			p.Volt >= tech.Vmin()-1e-9 && p.Volt <= tech.Vdd+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: Quantize(f).Freq <= f <= StepAbove(f).Freq for in-range f.
func TestQuickQuantizeBrackets(t *testing.T) {
	tab := mustPentiumM(t)
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		frac := math.Abs(x)
		frac -= math.Floor(frac)
		target := tab.Min().Freq + frac*(tab.Nominal().Freq-tab.Min().Freq)
		lo, hi := tab.Quantize(target), tab.StepAbove(target)
		return lo.Freq <= target+1 && hi.Freq >= target-1 && lo.Freq <= hi.Freq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestWithOverclock(t *testing.T) {
	tab := mustPentiumM(t)
	oc, err := tab.WithOverclock(1.25)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Len() <= tab.Len() {
		t.Fatalf("no overclocked points added (%d vs %d)", oc.Len(), tab.Len())
	}
	top := oc.Nominal()
	if top.Freq <= 3.2e9 {
		t.Errorf("top frequency %g not overclocked", top.Freq)
	}
	if top.Volt <= phys.Tech65().Vdd {
		t.Errorf("top voltage %g not overdriven", top.Volt)
	}
	// Ladder stays monotone.
	pts := oc.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].Freq <= pts[i-1].Freq || pts[i].Volt < pts[i-1].Volt-1e-12 {
			t.Fatalf("overclocked ladder not monotone at %d", i)
		}
	}
	// Original table is unchanged.
	if tab.Nominal().Freq != 3.2e9 {
		t.Error("WithOverclock mutated the source table")
	}
	if _, err := tab.WithOverclock(1.0); err == nil {
		t.Error("accepted multiplier 1.0")
	}
	if _, err := tab.WithOverclock(0.5); err == nil {
		t.Error("accepted multiplier below 1")
	}
}

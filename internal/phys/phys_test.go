package phys

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"cmppower/internal/check"
)

func TestDefaultsValidate(t *testing.T) {
	for _, tech := range []Technology{Tech130(), Tech65()} {
		if err := tech.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", tech.Name, err)
		}
	}
}

func TestValidateRejectsBadDescriptors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Technology)
	}{
		{"zero Vdd", func(x *Technology) { x.Vdd = 0 }},
		{"negative Vdd", func(x *Technology) { x.Vdd = -1 }},
		{"Vth above Vdd", func(x *Technology) { x.Vth = 2.0 }},
		{"zero Vth", func(x *Technology) { x.Vth = 0 }},
		{"zero frequency", func(x *Technology) { x.FNominal = 0 }},
		{"alpha too small", func(x *Technology) { x.Alpha = 0.5 }},
		{"alpha too large", func(x *Technology) { x.Alpha = 5 }},
		{"vmin factor below 1", func(x *Technology) { x.VminOverVth = 0.9 }},
		{"vmin above Vdd", func(x *Technology) { x.VminOverVth = 10 }},
		{"static share 1", func(x *Technology) { x.StaticShare = 1 }},
		{"static share negative", func(x *Technology) { x.StaticShare = -0.1 }},
	}
	for _, c := range cases {
		tech := Tech65()
		c.mutate(&tech)
		if err := tech.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid descriptor", c.name)
		}
	}
	// Every float field refuses NaN and both infinities with a
	// *check.Error naming it; NaN Vth, Alpha and StaticShare used to pass.
	fields := []struct {
		name string
		ptr  func(*Technology) *float64
	}{
		{"Vdd", func(x *Technology) *float64 { return &x.Vdd }},
		{"Vth", func(x *Technology) *float64 { return &x.Vth }},
		{"FNominal", func(x *Technology) *float64 { return &x.FNominal }},
		{"Alpha", func(x *Technology) *float64 { return &x.Alpha }},
		{"VminOverVth", func(x *Technology) *float64 { return &x.VminOverVth }},
		{"LeakBetaV", func(x *Technology) *float64 { return &x.LeakBetaV }},
		{"LeakBetaT", func(x *Technology) *float64 { return &x.LeakBetaT }},
		{"StaticShare", func(x *Technology) *float64 { return &x.StaticShare }},
		{"CapScale", func(x *Technology) *float64 { return &x.CapScale }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			tech := Tech65()
			*f.ptr(&tech) = v
			var ce *check.Error
			if err := tech.Validate(); !errors.As(err, &ce) || ce.Field != f.name {
				t.Errorf("%s = %g: got %v, want a *check.Error on %s", f.name, v, err, f.name)
			}
		}
	}
}

func TestFMaxAtNominalEqualsFNominal(t *testing.T) {
	for _, tech := range []Technology{Tech130(), Tech65()} {
		got := tech.FMax(tech.Vdd)
		if math.Abs(got-tech.FNominal)/tech.FNominal > 1e-12 {
			t.Errorf("%s: FMax(Vdd)=%g, want %g", tech.Name, got, tech.FNominal)
		}
	}
}

func TestFMaxBelowThresholdIsZero(t *testing.T) {
	tech := Tech65()
	if got := tech.FMax(tech.Vth); got != 0 {
		t.Errorf("FMax(Vth)=%g, want 0", got)
	}
	if got := tech.FMax(0.01); got != 0 {
		t.Errorf("FMax(0.01)=%g, want 0", got)
	}
}

func TestFMaxMonotone(t *testing.T) {
	tech := Tech65()
	prev := 0.0
	for v := tech.Vth + 0.01; v <= tech.Vdd; v += 0.005 {
		f := tech.FMax(v)
		if f < prev {
			t.Fatalf("FMax not monotone at v=%g: %g < %g", v, f, prev)
		}
		prev = f
	}
}

func TestVoltageForRoundTrip(t *testing.T) {
	for _, tech := range []Technology{Tech130(), Tech65()} {
		for _, frac := range []float64{1.0, 0.9, 0.75, 0.5, 0.35} {
			f := frac * tech.FNominal
			v, err := tech.VoltageFor(f)
			if err != nil {
				t.Fatalf("%s: VoltageFor(%g): %v", tech.Name, f, err)
			}
			if v < tech.Vmin()-1e-9 || v > tech.Vdd+1e-9 {
				t.Fatalf("%s: VoltageFor(%g)=%g outside [Vmin,Vdd]", tech.Name, f, v)
			}
			if got := tech.FMax(v); got < f*(1-1e-6) {
				t.Errorf("%s: FMax(VoltageFor(%g))=%g below target", tech.Name, f, got)
			}
		}
	}
}

func TestVoltageForClampsToVmin(t *testing.T) {
	tech := Tech65()
	fLow := 0.5 * tech.FMax(tech.Vmin())
	v, err := tech.VoltageFor(fLow)
	if err != nil {
		t.Fatalf("VoltageFor: %v", err)
	}
	if v != tech.Vmin() {
		t.Errorf("low frequency should clamp to Vmin=%g, got %g", tech.Vmin(), v)
	}
}

func TestVoltageForZeroAndNegative(t *testing.T) {
	tech := Tech130()
	for _, f := range []float64{0, -1e9} {
		v, err := tech.VoltageFor(f)
		if err != nil {
			t.Fatalf("VoltageFor(%g): %v", f, err)
		}
		if v != tech.Vmin() {
			t.Errorf("VoltageFor(%g)=%g, want Vmin %g", f, v, tech.Vmin())
		}
	}
}

func TestVoltageForUnreachable(t *testing.T) {
	tech := Tech65()
	_, err := tech.VoltageFor(tech.FNominal * 1.5)
	if !errors.Is(err, ErrFrequencyUnreachable) {
		t.Errorf("want ErrFrequencyUnreachable, got %v", err)
	}
}

func TestLeakMultiplierReference(t *testing.T) {
	for _, tech := range []Technology{Tech130(), Tech65()} {
		if got := tech.LeakMultiplier(tech.Vdd, RoomTempC); math.Abs(got-1) > 1e-12 {
			t.Errorf("%s: L(Vdd,Tstd)=%g, want 1", tech.Name, got)
		}
	}
}

func TestLeakMultiplierDoublesPer40C(t *testing.T) {
	tech := Tech65()
	l0 := tech.LeakMultiplier(tech.Vdd, 50)
	l1 := tech.LeakMultiplier(tech.Vdd, 90)
	if math.Abs(l1/l0-2) > 1e-9 {
		t.Errorf("leakage ratio over 40°C = %g, want 2", l1/l0)
	}
}

func TestLeakMultiplierDropsWithVoltage(t *testing.T) {
	tech := Tech65()
	hi := tech.LeakMultiplier(tech.Vdd, 60)
	lo := tech.LeakMultiplier(tech.Vmin(), 60)
	if lo >= hi {
		t.Errorf("leakage should drop with voltage: L(Vmin)=%g >= L(Vdd)=%g", lo, hi)
	}
}

func TestStaticShareConsistency(t *testing.T) {
	// At (Vdd, MaxDieTempC) the static share of total power must equal the
	// configured StaticShare by construction.
	for _, tech := range []Technology{Tech130(), Tech65()} {
		ps := tech.StaticPowerRel(tech.Vdd, MaxDieTempC)
		share := ps / (1 + ps)
		if math.Abs(share-tech.StaticShare) > 1e-12 {
			t.Errorf("%s: static share=%g, want %g", tech.Name, share, tech.StaticShare)
		}
	}
}

func TestStaticPowerShrinksWithVoltageAndTemp(t *testing.T) {
	tech := Tech65()
	hot := tech.StaticPowerRel(tech.Vdd, MaxDieTempC)
	cooler := tech.StaticPowerRel(tech.Vdd, 60)
	scaled := tech.StaticPowerRel(tech.Vmin(), 60)
	if !(scaled < cooler && cooler < hot) {
		t.Errorf("want monotone drop: scaled=%g cooler=%g hot=%g", scaled, cooler, hot)
	}
}

func TestDynPowerRelCubicFlavor(t *testing.T) {
	tech := Tech65()
	// Half voltage and half frequency -> 1/8 dynamic power.
	got := tech.DynPowerRel(tech.Vdd/2, tech.FNominal/2)
	if math.Abs(got-0.125) > 1e-12 {
		t.Errorf("DynPowerRel(V/2,f/2)=%g, want 0.125", got)
	}
	if got := tech.DynPowerRel(tech.Vdd, tech.FNominal); math.Abs(got-1) > 1e-12 {
		t.Errorf("DynPowerRel at nominal = %g, want 1", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%g,%g,%g)=%g, want %g", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestStringContainsName(t *testing.T) {
	s := Tech65().String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
}

// Property: VoltageFor always returns a voltage whose FMax covers the
// requested frequency, for any feasible frequency.
func TestQuickVoltageForCovers(t *testing.T) {
	tech := Tech65()
	f := func(frac float64) bool {
		frac = math.Abs(frac)
		frac -= math.Floor(frac) // in [0,1)
		target := frac * tech.FNominal
		v, err := tech.VoltageFor(target)
		if err != nil {
			return false
		}
		return tech.FMax(v) >= target*(1-1e-6) && v >= tech.Vmin()-1e-12 && v <= tech.Vdd+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the leakage multiplier is multiplicative in its two factors.
func TestQuickLeakSeparable(t *testing.T) {
	tech := Tech130()
	f := func(dv, dt float64) bool {
		v := phackClamp(tech.Vmin(), tech.Vdd, dv)
		tc := phackClamp(AmbientTempC, MaxDieTempC, dt)
		got := tech.LeakMultiplier(v, tc)
		want := tech.LeakMultiplier(v, RoomTempC) * tech.LeakMultiplier(tech.Vdd, tc)
		return math.Abs(got-want) <= 1e-9*math.Abs(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// phackClamp maps an arbitrary float into [lo, hi] deterministically.
func phackClamp(lo, hi, x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return lo
	}
	frac := math.Abs(x)
	frac -= math.Floor(frac)
	return lo + frac*(hi-lo)
}

func TestVoltageForOverdrive(t *testing.T) {
	tech := Tech65()
	// Below nominal it matches VoltageFor.
	v1, err := tech.VoltageForOverdrive(0.5 * tech.FNominal)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := tech.VoltageFor(0.5 * tech.FNominal)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("sub-nominal overdrive voltage %g != %g", v1, v2)
	}
	// Above nominal the supply must exceed Vdd and deliver the frequency.
	target := 1.2 * tech.FNominal
	v, err := tech.VoltageForOverdrive(target)
	if err != nil {
		t.Fatal(err)
	}
	if v <= tech.Vdd || v > MaxOverdrive*tech.Vdd {
		t.Errorf("overdrive voltage %g outside (Vdd, %g·Vdd]", v, MaxOverdrive)
	}
	if tech.FMax(v) < target*(1-1e-6) {
		t.Errorf("FMax(%g)=%g below target %g", v, tech.FMax(v), target)
	}
	// Far beyond the ceiling is rejected.
	if _, err := tech.VoltageForOverdrive(3 * tech.FNominal); !errors.Is(err, ErrFrequencyUnreachable) {
		t.Errorf("want ErrFrequencyUnreachable, got %v", err)
	}
}

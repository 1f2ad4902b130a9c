// Package phys provides the CMOS device-physics layer of the model:
// process-technology descriptors, the alpha-power-law relation between
// supply voltage and maximum operating frequency (paper Eq. 1), and the
// curve-fitted leakage-current multiplier in supply voltage and temperature
// (paper Eq. 3).
//
// Everything downstream — the analytical model in internal/core, the DVFS
// tables in internal/dvfs, and the static-power model in internal/power —
// consumes voltages, frequencies and leakage multipliers from this package,
// so the constants here are the single calibration point of the repository.
package phys

import (
	"errors"
	"fmt"
	"math"

	"cmppower/internal/check"
)

// Reference temperatures used throughout the model, in degrees Celsius.
const (
	// RoomTempC is the "standard" temperature Tstd at which the nominal
	// leakage current is specified (paper Eq. 3 uses 25 °C room temperature).
	RoomTempC = 25.0
	// AmbientTempC is the in-box ambient air temperature of the modeled
	// system (paper Table 1: 45 °C). Die temperature can never fall below it.
	AmbientTempC = 45.0
	// MaxDieTempC is the maximum operating temperature allowed by the
	// package/cooling solution (paper §3.3: 100 °C).
	MaxDieTempC = 100.0
)

// ErrFrequencyUnreachable is returned by VoltageFor when the requested
// frequency exceeds what the technology can deliver at its nominal supply.
var ErrFrequencyUnreachable = errors.New("phys: frequency above nominal maximum")

// Technology describes one CMOS process node and the fitted constants of
// the paper's power model. All fields are exported so that ablation studies
// can perturb individual constants; use Tech130/Tech65 for the calibrated
// defaults.
type Technology struct {
	// Name is a short human-readable identifier such as "65nm".
	Name string
	// FeatureNm is the drawn feature size in nanometers.
	FeatureNm int
	// Vdd is the nominal supply voltage Vn in volts (ITRS).
	Vdd float64
	// Vth is the threshold voltage in volts (ITRS).
	Vth float64
	// FNominal is the maximum operating frequency at Vdd, in hertz.
	FNominal float64
	// Alpha is the exponent of the alpha-power law
	// fmax(V) = K·(V−Vth)^Alpha / V (paper Eq. 1).
	Alpha float64
	// VminOverVth sets the minimum supply voltage as a multiple of Vth,
	// preserving noise margin (paper §2.2). Voltage scaling never goes
	// below VminOverVth·Vth.
	VminOverVth float64
	// LeakBetaV is the voltage sensitivity of the curve-fitted leakage
	// multiplier, per volt: L ∝ exp(LeakBetaV·(V−Vdd)).
	LeakBetaV float64
	// LeakBetaT is the temperature sensitivity of the leakage multiplier,
	// per °C: L ∝ exp(LeakBetaT·(T−RoomTempC)). The default ln(2)/40
	// doubles leakage every 40 °C.
	LeakBetaT float64
	// StaticShare is the static fraction of *total* chip power when
	// running flat out at (Vdd, FNominal) with the die at MaxDieTempC.
	// ITRS-trend values: ~0.20 at 130 nm, ~0.45 at 65 nm.
	StaticShare float64
	// CapScale multiplies per-access switched capacitance relative to the
	// 65 nm reference budget (capacitance tracks drawn feature size, so
	// ~FeatureNm/65). The zero value means 1. Note the thermal-design-point
	// calibration renormalizes absolute dynamic power, so CapScale shifts
	// only the pre-calibration scale, not calibrated results.
	CapScale float64
}

// CapScaleOrUnit resolves the zero value of CapScale to 1.
func (t Technology) CapScaleOrUnit() float64 {
	if t.CapScale == 0 {
		return 1
	}
	return t.CapScale
}

// Tech130 returns the calibrated 130 nm technology descriptor used for the
// paper's 130 nm analytical plots.
func Tech130() Technology {
	return Technology{
		Name:        "130nm",
		FeatureNm:   130,
		Vdd:         1.3,
		Vth:         0.20,
		FNominal:    1.7e9,
		Alpha:       2.0,
		VminOverVth: 3.2,
		LeakBetaV:   2.5,
		LeakBetaT:   math.Ln2 / 40.0,
		StaticShare: 0.20,
		CapScale:    130.0 / 65.0,
	}
}

// Tech90 returns a 90 nm technology descriptor interpolated on the ITRS
// trend between the paper's two calibrated nodes: supply and threshold
// voltages step down, the frequency envelope and the static share step up
// as leakage grows with scaling.
func Tech90() Technology {
	return Technology{
		Name:        "90nm",
		FeatureNm:   90,
		Vdd:         1.2,
		Vth:         0.19,
		FNominal:    2.4e9,
		Alpha:       2.0,
		VminOverVth: 3.2,
		LeakBetaV:   2.5,
		LeakBetaT:   math.Ln2 / 40.0,
		StaticShare: 0.32,
		CapScale:    90.0 / 65.0,
	}
}

// TechByName resolves a node name ("130nm", "90nm", "65nm"; the bare
// numbers are accepted too) to its calibrated descriptor.
func TechByName(name string) (Technology, error) {
	switch name {
	case "130nm", "130":
		return Tech130(), nil
	case "90nm", "90":
		return Tech90(), nil
	case "65nm", "65", "":
		return Tech65(), nil
	}
	return Technology{}, fmt.Errorf("phys: unknown technology node %q (want 130nm, 90nm, or 65nm)", name)
}

// Tech65 returns the calibrated 65 nm technology descriptor. It is also the
// process of the experimental CMP (paper Table 1: 3.2 GHz, 1.1 V, 0.18 V).
func Tech65() Technology {
	return Technology{
		Name:        "65nm",
		FeatureNm:   65,
		Vdd:         1.1,
		Vth:         0.18,
		FNominal:    3.2e9,
		Alpha:       2.0,
		VminOverVth: 3.2,
		LeakBetaV:   2.5,
		LeakBetaT:   math.Ln2 / 40.0,
		StaticShare: 0.45,
	}
}

// Validate reports whether the descriptor is physically sensible. Every
// failure is a *check.Error naming the field; NaN and the infinities fail
// every field.
func (t Technology) Validate() error {
	fail := func(field string, v float64, rule string) error {
		return check.Fail(field, v, "phys: %s: %s %s, got %g", t.Name, field, rule, v)
	}
	switch {
	case !(t.Vdd > 0 && check.Finite(t.Vdd)):
		return fail("Vdd", t.Vdd, "must be finite and positive")
	case !(t.Vth > 0 && t.Vth < t.Vdd):
		return fail("Vth", t.Vth, "must be in (0, Vdd)")
	case !(t.FNominal > 0 && check.Finite(t.FNominal)):
		return fail("FNominal", t.FNominal, "must be finite and positive")
	case !check.In(t.Alpha, 1, 3):
		return fail("Alpha", t.Alpha, "out of plausible range [1,3]")
	case !check.In(t.VminOverVth, 1, math.MaxFloat64):
		return fail("VminOverVth", t.VminOverVth, "must be finite and >= 1")
	case t.VminOverVth*t.Vth > t.Vdd:
		return check.Fail("VminOverVth", t.VminOverVth, "phys: %s: Vmin %.3g exceeds Vdd %.3g", t.Name, t.VminOverVth*t.Vth, t.Vdd)
	case !check.Finite(t.LeakBetaV):
		return fail("LeakBetaV", t.LeakBetaV, "must be finite")
	case !check.Finite(t.LeakBetaT):
		return fail("LeakBetaT", t.LeakBetaT, "must be finite")
	case !(t.StaticShare >= 0 && t.StaticShare < 1):
		return fail("StaticShare", t.StaticShare, "must be in [0,1)")
	case !check.In(t.CapScale, 0, math.MaxFloat64):
		return fail("CapScale", t.CapScale, "must be finite and >= 0 (0 means 1)")
	}
	return nil
}

// Vmin returns the minimum supply voltage that preserves noise margin.
func (t Technology) Vmin() float64 { return t.VminOverVth * t.Vth }

// K returns the alpha-power-law constant chosen so that FMax(Vdd)==FNominal.
func (t Technology) K() float64 {
	return t.FNominal * t.Vdd / math.Pow(t.Vdd-t.Vth, t.Alpha)
}

// FMax returns the maximum operating frequency at supply voltage v
// (paper Eq. 1). It returns 0 for v <= Vth.
func (t Technology) FMax(v float64) float64 {
	if v <= t.Vth {
		return 0
	}
	return t.K() * math.Pow(v-t.Vth, t.Alpha) / v
}

// VoltageFor returns the lowest supply voltage in [Vmin, Vdd] at which the
// technology can operate at frequency f. Frequencies at or below
// FMax(Vmin) return Vmin (frequency-only scaling region); frequencies
// above FNominal return ErrFrequencyUnreachable.
func (t Technology) VoltageFor(f float64) (float64, error) {
	if f <= 0 {
		return t.Vmin(), nil
	}
	// FMax has numerical wiggle room at the very top of the range.
	if f > t.FNominal*(1+1e-9) {
		return 0, fmt.Errorf("%w: %s cannot reach %.4g Hz (max %.4g Hz)",
			ErrFrequencyUnreachable, t.Name, f, t.FNominal)
	}
	lo, hi := t.Vmin(), t.Vdd
	if t.FMax(lo) >= f {
		return lo, nil
	}
	// FMax is strictly increasing for v > Vth, so bisection converges.
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if t.FMax(mid) >= f {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// MaxOverdrive bounds how far above the nominal supply the overclocking
// helpers will push the voltage (reliability/electromigration limit).
const MaxOverdrive = 1.25

// VoltageForOverdrive is VoltageFor extended above the nominal operating
// point: frequencies beyond FNominal are reached by raising the supply
// past Vdd, up to MaxOverdrive·Vdd. The paper's §4.2 closing remark —
// overclocking memory-bound applications within the power budget — needs
// this region.
func (t Technology) VoltageForOverdrive(f float64) (float64, error) {
	if f <= t.FNominal {
		return t.VoltageFor(f)
	}
	vMax := MaxOverdrive * t.Vdd
	if f > t.FMax(vMax) {
		return 0, fmt.Errorf("%w: %s cannot reach %.4g Hz even at %.0f%% overdrive",
			ErrFrequencyUnreachable, t.Name, f, (MaxOverdrive-1)*100)
	}
	lo, hi := t.Vdd, vMax
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if t.FMax(mid) >= f {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// LeakMultiplier returns the curve-fitted leakage-current multiplier
// L(V,T), normalized so that L(Vdd, RoomTempC) == 1 (paper Eq. 3). It is
// exponential both in the supply-voltage delta and the temperature delta.
func (t Technology) LeakMultiplier(v, tempC float64) float64 {
	return math.Exp(t.LeakBetaV*(v-t.Vdd)) * math.Exp(t.LeakBetaT*(tempC-RoomTempC))
}

// StaticDynRatioHot returns P_static/P_dynamic at nominal voltage and
// frequency with the die at MaxDieTempC, derived from StaticShare.
func (t Technology) StaticDynRatioHot() float64 {
	return t.StaticShare / (1 - t.StaticShare)
}

// StaticPowerRel returns the static power at supply voltage v and die
// temperature tempC, expressed relative to the *dynamic* power of the
// full-throttle nominal operating point (P_D1 in the paper's notation):
//
//	P_S(V,T) / P_D1 = ρ_hot · (V/Vdd) · L(V,T)/L(Vdd,MaxDieTempC)
//
// where ρ_hot = StaticDynRatioHot. Static power is V·I_leak (paper Eq. 2),
// hence the extra linear factor of V on top of the leakage-current fit.
func (t Technology) StaticPowerRel(v, tempC float64) float64 {
	lHot := t.LeakMultiplier(t.Vdd, MaxDieTempC)
	return t.StaticDynRatioHot() * (v / t.Vdd) * t.LeakMultiplier(v, tempC) / lHot
}

// DynPowerRel returns the dynamic power of one core running at supply
// voltage v and frequency f relative to the nominal point, assuming a
// constant activity factor (paper Eq. 2): a·C·V²·f scaling.
func (t Technology) DynPowerRel(v, f float64) float64 {
	rv := v / t.Vdd
	return rv * rv * (f / t.FNominal)
}

// String implements fmt.Stringer.
func (t Technology) String() string {
	return fmt.Sprintf("%s (Vdd=%.2fV Vth=%.2fV f=%.2fGHz α=%.1f static=%.0f%%)",
		t.Name, t.Vdd, t.Vth, t.FNominal/1e9, t.Alpha, t.StaticShare*100)
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Package dvfs provides voltage/frequency operating-point tables and
// chip-wide scaling support.
//
// The experimental CMP of the paper scales frequency from 3.2 GHz down to
// 200 MHz in 200 MHz steps, with the supply voltage for each step taken
// from a Pentium-M-style datasheet relation (paper §3.1). Here the relation
// is derived from the technology's alpha-power law with the noise-margin
// floor Vmin: above the Vmin knee, voltage tracks frequency; below it only
// frequency scales ("frequency-only" region), exactly the asymmetry that
// drives the paper's Scenario II results.
package dvfs

import (
	"fmt"
	"math"
	"sort"

	"cmppower/internal/check"
	"cmppower/internal/phys"
)

// OperatingPoint is one (frequency, voltage) pair of the chip-wide ladder.
type OperatingPoint struct {
	Freq float64 // operating frequency, Hz
	Volt float64 // supply voltage, V
}

// String implements fmt.Stringer.
func (p OperatingPoint) String() string {
	return fmt.Sprintf("%.0f MHz @ %.3f V", p.Freq/1e6, p.Volt)
}

// Table is an immutable ascending-frequency ladder of operating points for
// one technology.
type Table struct {
	tech   phys.Technology
	points []OperatingPoint
}

// MaxPoints bounds the length of a ladder. The shipped scenarios use 16
// and 8 points; 4096 admits a 1 MHz step across a 4 GHz range.
const MaxPoints = 4096

// LadderLen returns the number of points NewTable builds from fmin to
// fmax in steps of step on a chip whose nominal frequency is fnominal,
// without building any: one per step up to fmax (clamped to fnominal),
// plus the nominal point when the last step falls short of it. It is a
// float so that a step too small to count with gives +Inf or NaN, which
// fail LadderLen(...) <= MaxPoints, where an integer would overflow.
func LadderLen(fnominal, fmin, fmax, step float64) float64 {
	fmax = math.Min(fmax, fnominal)
	n := math.Floor((fmax*(1+1e-9)-fmin)/step) + 1
	if fmin+(n-1)*step < fnominal*(1-1e-9) {
		n++
	}
	return n
}

// NewTable builds a ladder from fmin to fmax (inclusive, fmax clamped to
// the technology's nominal frequency) with the given step, of at most
// MaxPoints points. Voltages come from the technology's alpha-power law
// with the Vmin floor.
func NewTable(tech phys.Technology, fmin, fmax, step float64) (*Table, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	const badBounds = "dvfs: invalid ladder bounds fmin=%g fmax=%g step=%g"
	switch {
	case !(fmin > 0 && check.Finite(fmin)):
		return nil, check.Fail("fmin", fmin, badBounds, fmin, fmax, step)
	case fmin > tech.FNominal:
		return nil, check.Fail("fmin", fmin, "dvfs: ladder fmin=%g above the nominal %g", fmin, tech.FNominal)
	case !check.In(fmax, fmin, math.MaxFloat64):
		return nil, check.Fail("fmax", fmax, badBounds, fmin, fmax, step)
	case !(step > 0 && check.Finite(step)):
		return nil, check.Fail("step", step, badBounds, fmin, fmax, step)
	}
	// Counted before anything is built: a step under the float spacing of
	// fmin would never advance f below, and asks for far more points.
	if n := LadderLen(tech.FNominal, fmin, fmax, step); !(n <= MaxPoints) {
		return nil, check.Fail("step", step, "dvfs: ladder fmin=%g fmax=%g step=%g has %g points, over %d",
			fmin, fmax, step, n, MaxPoints)
	}
	if fmax > tech.FNominal {
		fmax = tech.FNominal
	}
	var pts []OperatingPoint
	for f := fmin; f <= fmax*(1+1e-9); f += step {
		ff := math.Min(f, tech.FNominal)
		v, err := tech.VoltageFor(ff)
		if err != nil {
			return nil, fmt.Errorf("dvfs: ladder point %g Hz: %w", ff, err)
		}
		pts = append(pts, OperatingPoint{Freq: ff, Volt: v})
	}
	// Always include the nominal point at the top of the ladder.
	if top := pts[len(pts)-1]; top.Freq < tech.FNominal*(1-1e-9) {
		pts = append(pts, OperatingPoint{Freq: tech.FNominal, Volt: tech.Vdd})
	}
	return &Table{tech: tech, points: pts}, nil
}

// PentiumMStyle returns the paper's experimental ladder: 200 MHz to the
// technology's nominal frequency in 200 MHz steps (paper §3.1, §4.2).
func PentiumMStyle(tech phys.Technology) (*Table, error) {
	return NewTable(tech, 200e6, tech.FNominal, 200e6)
}

// Tech returns the technology this table was built for.
func (t *Table) Tech() phys.Technology { return t.tech }

// WithOverclock returns a copy of the table extended above the nominal
// frequency in the same step size, up to maxMult times nominal (bounded by
// the technology's overdrive limit). Overclocked points carry overdriven
// supply voltages.
func (t *Table) WithOverclock(maxMult float64) (*Table, error) {
	if maxMult <= 1 {
		return nil, fmt.Errorf("dvfs: overclock multiplier %g must exceed 1", maxMult)
	}
	pts := t.Points()
	step := t.tech.FNominal
	if len(pts) >= 2 {
		step = pts[1].Freq - pts[0].Freq
	}
	out := &Table{tech: t.tech, points: pts}
	for f := t.tech.FNominal + step; f <= maxMult*t.tech.FNominal*(1+1e-9); f += step {
		v, err := t.tech.VoltageForOverdrive(f)
		if err != nil {
			break // reached the overdrive ceiling
		}
		out.points = append(out.points, OperatingPoint{Freq: f, Volt: v})
	}
	if len(out.points) == len(pts) {
		return nil, fmt.Errorf("dvfs: no overclocked points reachable below the overdrive ceiling")
	}
	return out, nil
}

// Points returns a copy of the ladder in ascending frequency order.
func (t *Table) Points() []OperatingPoint {
	out := make([]OperatingPoint, len(t.points))
	copy(out, t.points)
	return out
}

// Len returns the number of ladder steps.
func (t *Table) Len() int { return len(t.points) }

// Nominal returns the highest operating point.
func (t *Table) Nominal() OperatingPoint { return t.points[len(t.points)-1] }

// Min returns the lowest operating point.
func (t *Table) Min() OperatingPoint { return t.points[0] }

// PointFor returns a continuous operating point for frequency f: voltage is
// linearly interpolated between the bracketing ladder steps (the paper
// approximates values between profiled points by linear scaling, §4.2).
// f is clamped to the ladder's range: an Eq. 7 target below the ladder
// minimum returns the floor, one above nominal returns the nominal point
// ("run flat out"). A NaN target — a degenerate efficiency measurement —
// also clamps to nominal instead of producing a NaN voltage.
func (t *Table) PointFor(f float64) OperatingPoint {
	pts := t.points
	if math.IsNaN(f) {
		return pts[len(pts)-1]
	}
	if f <= pts[0].Freq {
		return pts[0]
	}
	if f >= pts[len(pts)-1].Freq {
		return pts[len(pts)-1]
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Freq >= f })
	lo, hi := pts[i-1], pts[i]
	w := (f - lo.Freq) / (hi.Freq - lo.Freq)
	return OperatingPoint{Freq: f, Volt: lo.Volt + w*(hi.Volt-lo.Volt)}
}

// Quantize returns the highest ladder step with frequency <= f, or the
// lowest step when f is below the whole ladder. A NaN target clamps to
// the nominal (top) step, mirroring PointFor. Use Quantize when the
// platform only supports discrete steps.
func (t *Table) Quantize(f float64) OperatingPoint {
	pts := t.points
	if math.IsNaN(f) {
		return pts[len(pts)-1]
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Freq > f })
	if i == 0 {
		return pts[0]
	}
	return pts[i-1]
}

// StepAbove returns the lowest ladder step with frequency >= f, or the
// highest step when f is above the whole ladder.
func (t *Table) StepAbove(f float64) OperatingPoint {
	pts := t.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Freq >= f })
	if i == len(pts) {
		return pts[len(pts)-1]
	}
	return pts[i]
}

// SpeedRatio returns p.Freq divided by the ladder's nominal frequency.
func (t *Table) SpeedRatio(p OperatingPoint) float64 {
	return p.Freq / t.Nominal().Freq
}

// Setting is the DVFS state of one voltage/frequency island. The paper's
// experimental chip has exactly one island spanning every on-chip clock
// (§3.1 assumes global voltage/frequency scaling), and single-island
// scenarios still work that way; scenarios with per-cluster DVFS domains
// hold one Setting per Domain (see DomainSet), so nothing in this type
// may assume it governs the whole chip.
type Setting struct {
	Point OperatingPoint
	// Nominal is the full-throttle point the chip was designed for.
	Nominal OperatingPoint
}

// Set moves the chip to operating point p.
func (s *Setting) Set(p OperatingPoint) { s.Point = p }

// TransitionFault decides whether a requested DVFS transition fails to
// latch (fault injection); nil means transitions always succeed. See
// internal/faults for the canonical implementation.
type TransitionFault interface {
	DVFSTransitionFails() bool
}

// Request attempts to move the chip to operating point p. With a fault
// source attached the transition may fail, leaving the previous point in
// effect — callers (e.g. a DTM controller) are expected to retry at their
// next decision interval. It returns the point in effect and whether the
// transition latched.
func (s *Setting) Request(p OperatingPoint, tf TransitionFault) (OperatingPoint, bool) {
	if tf != nil && tf.DVFSTransitionFails() {
		return s.Point, false
	}
	s.Point = p
	return p, true
}

// SpeedRatio returns current frequency over nominal frequency.
func (s *Setting) SpeedRatio() float64 { return s.Point.Freq / s.Nominal.Freq }

// Package energy provides per-access dynamic energy estimates for the
// microarchitectural structures of the modeled CMP: a CACTI-flavored
// analytical estimate for SRAM arrays (caches) and a Wattch-flavored fixed
// budget for core logic blocks.
//
// As in the paper (§3.3), absolute joule values are not trusted: the power
// package renormalizes them against the thermal design point. What matters
// is the *relative* weight of the structures and the V² scaling applied
// when the chip changes operating point.
package energy

import (
	"fmt"
	"math"

	"cmppower/internal/floorplan"
	"cmppower/internal/phys"
)

// CacheSpec describes an SRAM cache array.
type CacheSpec struct {
	SizeBytes int
	LineBytes int
	Assoc     int
}

// Validate reports whether the geometry is usable.
func (s CacheSpec) Validate() error {
	switch {
	case s.SizeBytes <= 0:
		return fmt.Errorf("energy: cache size %d", s.SizeBytes)
	case s.LineBytes <= 0 || s.SizeBytes%s.LineBytes != 0:
		return fmt.Errorf("energy: line size %d does not divide cache size %d", s.LineBytes, s.SizeBytes)
	case s.Assoc <= 0 || (s.SizeBytes/s.LineBytes)%s.Assoc != 0:
		return fmt.Errorf("energy: associativity %d incompatible with %d lines", s.Assoc, s.SizeBytes/s.LineBytes)
	}
	return nil
}

// Sets returns the number of cache sets.
func (s CacheSpec) Sets() int { return s.SizeBytes / s.LineBytes / s.Assoc }

// referenceVdd is the supply the raw pJ numbers below were fitted at.
const referenceVdd = 1.1

// CacheAccessEnergy returns the dynamic energy of one access to the array,
// in joules, at the technology's nominal supply. The fit grows with the
// square root of capacity (bitline/wordline lengths) and mildly with
// associativity (parallel tag+data read), the standard CACTI first-order
// shape.
func CacheAccessEnergy(s CacheSpec, tech phys.Technology) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	base := 2.0e-12 * math.Sqrt(float64(s.SizeBytes)/1024.0)
	assocFactor := 1 + 0.1*float64(s.Assoc)
	v := tech.Vdd / referenceVdd
	return base * assocFactor * v * v, nil
}

// Budget holds the per-access dynamic energy of every chip unit at the
// technology's nominal supply voltage.
type Budget struct {
	tech      phys.Technology
	perAccess [floorplan.UnitBus + 1]float64
}

// EV6Budget returns the Wattch-flavored energy budget of the modeled
// Alpha-21264-class core on the given technology, with cache energies from
// the CACTI-lite fit for the paper's Table 1 geometries.
func EV6Budget(tech phys.Technology) (*Budget, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	b := &Budget{tech: tech}
	v := tech.Vdd / referenceVdd
	vv := v * v
	// Core logic, picojoules per access at the reference supply; relative
	// weights follow Wattch's EV6-class breakdown (window/regfile/FP heavy).
	logic := map[floorplan.Unit]float64{
		floorplan.UnitFetch:   40e-12,
		floorplan.UnitBpred:   15e-12,
		floorplan.UnitRename:  20e-12,
		floorplan.UnitWindow:  60e-12,
		floorplan.UnitRegfile: 40e-12,
		floorplan.UnitIALU:    30e-12,
		floorplan.UnitFALU:    70e-12,
		floorplan.UnitLSQ:     30e-12,
		floorplan.UnitBus:     250e-12,
	}
	for u, e := range logic {
		b.perAccess[u] = e * vv
	}
	il1, err := CacheAccessEnergy(CacheSpec{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2}, tech)
	if err != nil {
		return nil, err
	}
	dl1 := il1
	l2, err := CacheAccessEnergy(CacheSpec{SizeBytes: 4 << 20, LineBytes: 128, Assoc: 8}, tech)
	if err != nil {
		return nil, err
	}
	b.perAccess[floorplan.UnitIL1] = il1
	b.perAccess[floorplan.UnitDL1] = dl1
	b.perAccess[floorplan.UnitL2] = l2
	// Node scaling of the switched capacitance itself (the pJ fits above
	// are referenced to 65 nm). Multiplying by exactly 1 at the reference
	// node keeps the budget bit-identical there.
	cs := tech.CapScaleOrUnit()
	for u := range b.perAccess {
		b.perAccess[u] *= cs
	}
	return b, nil
}

// PerAccess returns the energy of one access to unit u at nominal supply,
// in joules.
func (b *Budget) PerAccess(u floorplan.Unit) float64 {
	if u < 0 || int(u) >= len(b.perAccess) {
		return 0
	}
	return b.perAccess[u]
}

// PerAccessAt returns the energy of one access to unit u at supply v:
// switched capacitance is voltage-independent, so energy scales with V²
// (paper Eq. 2).
func (b *Budget) PerAccessAt(u floorplan.Unit, v float64) float64 {
	r := v / b.tech.Vdd
	return b.PerAccess(u) * r * r
}

// Tech returns the budget's technology.
func (b *Budget) Tech() phys.Technology { return b.tech }

package energy

import (
	"math"
	"testing"
	"testing/quick"

	"cmppower/internal/floorplan"
	"cmppower/internal/phys"
)

func TestCacheSpecValidate(t *testing.T) {
	good := CacheSpec{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	bad := []CacheSpec{
		{SizeBytes: 0, LineBytes: 64, Assoc: 2},
		{SizeBytes: 1 << 10, LineBytes: 0, Assoc: 2},
		{SizeBytes: 1 << 10, LineBytes: 3, Assoc: 2},
		{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 0},
		{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
}

func TestCacheSpecSets(t *testing.T) {
	s := CacheSpec{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2}
	if got := s.Sets(); got != 512 {
		t.Errorf("Sets=%d, want 512", got)
	}
}

func TestCacheEnergyGrowsWithSize(t *testing.T) {
	tech := phys.Tech65()
	small, err := CacheAccessEnergy(CacheSpec{SizeBytes: 8 << 10, LineBytes: 64, Assoc: 2}, tech)
	if err != nil {
		t.Fatal(err)
	}
	big, err := CacheAccessEnergy(CacheSpec{SizeBytes: 4 << 20, LineBytes: 128, Assoc: 8}, tech)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Errorf("4MB access energy %g <= 8KB %g", big, small)
	}
	if small <= 0 {
		t.Errorf("non-positive energy %g", small)
	}
}

func TestCacheEnergyRejectsBadSpec(t *testing.T) {
	if _, err := CacheAccessEnergy(CacheSpec{}, phys.Tech65()); err == nil {
		t.Error("accepted zero spec")
	}
}

func TestEV6BudgetCoversAllUnits(t *testing.T) {
	b, err := EV6Budget(phys.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	for u := floorplan.Unit(0); int(u) < floorplan.NumUnits(); u++ {
		if b.PerAccess(u) <= 0 {
			t.Errorf("unit %s has no energy", u)
		}
	}
	if got := b.PerAccess(floorplan.Unit(-1)); got != 0 {
		t.Errorf("out-of-range unit energy = %g, want 0", got)
	}
	if got := b.PerAccess(floorplan.Unit(99)); got != 0 {
		t.Errorf("out-of-range unit energy = %g, want 0", got)
	}
}

func TestEV6BudgetRejectsBadTech(t *testing.T) {
	bad := phys.Tech65()
	bad.Vdd = 0
	if _, err := EV6Budget(bad); err == nil {
		t.Error("accepted invalid technology")
	}
}

func TestL2HeavierThanL1(t *testing.T) {
	b, err := EV6Budget(phys.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	if b.PerAccess(floorplan.UnitL2) <= b.PerAccess(floorplan.UnitDL1) {
		t.Error("L2 access should cost more than L1")
	}
}

func TestPerAccessAtQuadraticScaling(t *testing.T) {
	b, err := EV6Budget(phys.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	tech := b.Tech()
	full := b.PerAccessAt(floorplan.UnitIALU, tech.Vdd)
	half := b.PerAccessAt(floorplan.UnitIALU, tech.Vdd/2)
	if math.Abs(half-full/4) > 1e-18 {
		t.Errorf("V/2 energy %g, want quarter of %g", half, full)
	}
	if got := b.PerAccessAt(floorplan.UnitIALU, tech.Vdd); got != b.PerAccess(floorplan.UnitIALU) {
		t.Errorf("nominal PerAccessAt %g != PerAccess %g", got, b.PerAccess(floorplan.UnitIALU))
	}
}

// Property: cache energy is monotone in size for fixed line/assoc.
func TestQuickCacheEnergyMonotone(t *testing.T) {
	tech := phys.Tech65()
	f := func(k uint8) bool {
		// Sizes 8KB..8MB as powers of two.
		exp := 13 + int(k)%11
		s1 := CacheSpec{SizeBytes: 1 << exp, LineBytes: 64, Assoc: 2}
		s2 := CacheSpec{SizeBytes: 1 << (exp + 1), LineBytes: 64, Assoc: 2}
		e1, err1 := CacheAccessEnergy(s1, tech)
		e2, err2 := CacheAccessEnergy(s2, tech)
		return err1 == nil && err2 == nil && e2 > e1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

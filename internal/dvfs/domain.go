package dvfs

import (
	"fmt"

	"cmppower/internal/check"
)

// Domain is one voltage/frequency island of a multi-domain chip: a named
// set of cores scaled together, at a fixed speed ratio relative to the
// chip's lead (requested) operating point. The paper's chip is the
// degenerate case: one domain, ratio 1, covering every core.
type Domain struct {
	// Name identifies the domain ("big", "little", ...).
	Name string
	// Cores lists the physical core indices in this island.
	Cores []int
	// SpeedRatio scales the chip's requested frequency for this island,
	// in (0, 1]: a ratio-0.5 domain clocks at half the lead frequency,
	// with its voltage re-read from the ladder at that frequency. The
	// zero value means 1 (lock-step with the lead domain).
	SpeedRatio float64
}

// Ratio resolves the zero value of SpeedRatio to 1.
func (d Domain) Ratio() float64 {
	if d.SpeedRatio == 0 {
		return 1
	}
	return d.SpeedRatio
}

// DomainSet maps every core of a chip onto its DVFS domain and derives
// per-domain operating points from a lead point. A nil *DomainSet means
// the chip-wide single-island behavior.
type DomainSet struct {
	domains []Domain
	// domainOf[core] indexes domains.
	domainOf []int
}

// NewDomainSet validates the domains against the physical core count and
// builds the per-core index. Domains must partition [0, totalCores):
// every core in exactly one domain.
func NewDomainSet(totalCores int, domains []Domain) (*DomainSet, error) {
	if totalCores < 1 {
		return nil, fmt.Errorf("dvfs: domain set needs >= 1 core, got %d", totalCores)
	}
	if len(domains) == 0 {
		return nil, fmt.Errorf("dvfs: empty domain set")
	}
	ds := &DomainSet{domains: domains, domainOf: make([]int, totalCores)}
	for i := range ds.domainOf {
		ds.domainOf[i] = -1
	}
	seen := make(map[string]bool, len(domains))
	for di, d := range domains {
		if d.Name == "" {
			return nil, fmt.Errorf("dvfs: domain %d has no name", di)
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("dvfs: duplicate domain %q", d.Name)
		}
		seen[d.Name] = true
		if r := d.Ratio(); !(r > 0 && r <= 1) {
			return nil, check.Fail("SpeedRatio", r, "dvfs: domain %q speed ratio %g outside (0,1]", d.Name, r)
		}
		if len(d.Cores) == 0 {
			return nil, fmt.Errorf("dvfs: domain %q has no cores", d.Name)
		}
		for _, c := range d.Cores {
			if c < 0 || c >= totalCores {
				return nil, fmt.Errorf("dvfs: domain %q core %d outside [0,%d)", d.Name, c, totalCores)
			}
			if prev := ds.domainOf[c]; prev >= 0 {
				return nil, fmt.Errorf("dvfs: core %d in both %q and %q", c, domains[prev].Name, d.Name)
			}
			ds.domainOf[c] = di
		}
	}
	for c, di := range ds.domainOf {
		if di < 0 {
			return nil, fmt.Errorf("dvfs: core %d in no domain", c)
		}
	}
	return ds, nil
}

// Len returns the number of domains.
func (ds *DomainSet) Len() int { return len(ds.domains) }

// Domains returns the domains in declaration order.
func (ds *DomainSet) Domains() []Domain {
	out := make([]Domain, len(ds.domains))
	copy(out, ds.domains)
	return out
}

// DomainOf returns the index (into Domains) of the island core c belongs to.
func (ds *DomainSet) DomainOf(c int) int { return ds.domainOf[c] }

// RatioOf returns core c's speed ratio relative to the lead point.
func (ds *DomainSet) RatioOf(c int) float64 { return ds.domains[ds.domainOf[c]].Ratio() }

// Uniform reports whether every domain runs at ratio 1, i.e. the set is
// behaviorally the chip-wide single island.
func (ds *DomainSet) Uniform() bool {
	for _, d := range ds.domains {
		if d.Ratio() != 1 {
			return false
		}
	}
	return true
}

// PointFor derives domain di's operating point from the lead point: the
// ladder point at ratio×lead frequency (ratio-1 domains get the lead point
// itself, bit for bit). The voltage is re-read from the ladder, so slow
// islands ride the ladder down into the frequency-only region like any
// chip-wide scaled point would.
func (ds *DomainSet) PointFor(t *Table, di int, lead OperatingPoint) OperatingPoint {
	r := ds.domains[di].Ratio()
	if r == 1 {
		return lead
	}
	return t.PointFor(r * lead.Freq)
}

// CorePoints expands a lead operating point into the per-core points of
// every physical core, in core order.
func (ds *DomainSet) CorePoints(t *Table, lead OperatingPoint) []OperatingPoint {
	per := make([]OperatingPoint, len(ds.domainOf))
	byDomain := make([]OperatingPoint, len(ds.domains))
	for di := range ds.domains {
		byDomain[di] = ds.PointFor(t, di, lead)
	}
	for c, di := range ds.domainOf {
		per[c] = byDomain[di]
	}
	return per
}

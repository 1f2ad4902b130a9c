// Package scenario is the declarative chip IR: one validated Go struct
// with a stable JSON schema that is the single way every entry point —
// the fig3/fig4/explore CLI, the serve/router request bodies, the sweep
// engine, traffic run templates, and the surrogate store's fit keys —
// describes a chip. A scenario names a technology node, die geometry and
// 3D stacking, the DVFS ladder and its voltage/frequency domains, the
// core mix (homogeneous, or asymmetric big/little classes), thermal
// constants, and the memory-system switches.
//
// Identity is content-addressed: Canonical renders the defaults-applied
// form as deterministic JSON and Digest is its sha256. The digest is
// folded into the experiment memo keys, the server response cache, the
// surrogate fit keys, and run manifests, so two different chips can
// never collide in any cache, while syntactic variants of the same chip
// (field order, omitted defaults) always share.
//
// The zero scenario plus Normalize is exactly the paper's chip; Baseline
// returns it. The baseline reproduces the legacy flag-era outputs byte
// for byte — pinned by doctor check 15 and the scenario smoke script.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"cmppower/internal/phys"
)

// Scenario is the root of a scenario document.
type Scenario struct {
	// Name is a short identifier for reports and manifests.
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Node selects the technology: "130nm", "90nm", or "65nm" (default).
	Node string `json:"node,omitempty"`
	// Chip is the die geometry and stacking.
	Chip ChipSpec `json:"chip"`
	// DVFS is the ladder and its voltage/frequency domains.
	DVFS DVFSSpec `json:"dvfs"`
	// Cores is the core mix: classes plus a per-core assignment.
	Cores CoresSpec `json:"cores"`
	// Thermal overrides package constants.
	Thermal ThermalSpec `json:"thermal"`
	// Memory holds the memory-system switches.
	Memory MemorySpec `json:"memory"`
}

// ChipSpec is the die geometry.
type ChipSpec struct {
	// TotalCores is the physical core count (default 16).
	TotalCores int `json:"total_cores,omitempty"`
	// DieWMm, DieHMm are the die dimensions in millimeters (default 15.6).
	DieWMm float64 `json:"die_w_mm,omitempty"`
	DieHMm float64 `json:"die_h_mm,omitempty"`
	// L2Banks is the shared-L2 bank count (default 4).
	L2Banks int `json:"l2_banks,omitempty"`
	// Layers stacks the chip in 3D (default 1 = planar). TotalCores must
	// divide evenly across layers; layer 0 is sink-adjacent.
	Layers int `json:"layers,omitempty"`
}

// DVFSSpec is the operating-point ladder and its domains.
type DVFSSpec struct {
	// LadderMinMHz and LadderStepMHz shape the ladder (defaults 200/200,
	// the paper's Pentium-M-style ladder). The top is always the node's
	// nominal frequency.
	LadderMinMHz  float64 `json:"ladder_min_mhz,omitempty"`
	LadderStepMHz float64 `json:"ladder_step_mhz,omitempty"`
	// Quantize restricts chosen operating points to discrete ladder steps
	// instead of interpolating (the paper interpolates).
	Quantize bool `json:"quantize,omitempty"`
	// Domains are the voltage/frequency islands. Empty means one
	// chip-wide domain at ratio 1 (the paper's global DVFS). When given,
	// domains must partition the cores.
	Domains []DomainSpec `json:"domains,omitempty"`
}

// DomainSpec is one voltage/frequency island.
type DomainSpec struct {
	Name string `json:"name"`
	// Cores lists the physical core indices in the island.
	Cores []int `json:"cores"`
	// SpeedRatio scales the chip's lead frequency for this island, in
	// (0, 1]; 0 means 1.
	SpeedRatio float64 `json:"speed_ratio,omitempty"`
}

// CoresSpec is the core mix.
type CoresSpec struct {
	// Classes declares the core flavors referenced by Assign.
	Classes []CoreClass `json:"classes,omitempty"`
	// Assign names each physical core's class, length TotalCores. Empty
	// means every core is the default EV6-class core.
	Assign []string `json:"assign,omitempty"`
}

// CoreClass is one core flavor: microarchitectural deltas applied on top
// of each application's per-app core configuration.
type CoreClass struct {
	Name string `json:"name"`
	// IssueWidth overrides the issue width (0 keeps the app's value).
	IssueWidth int `json:"issue_width,omitempty"`
	// IPCScale multiplies the app's dependence-limited IPC, capped at the
	// issue width (0 means 1). Little cores sit below 1.
	IPCScale float64 `json:"ipc_scale,omitempty"`
}

// ThermalSpec overrides thermal-network constants.
type ThermalSpec struct {
	// RInterLayer is the specific inter-die bond resistance for stacked
	// chips, K·m²/W (0 means the package default).
	RInterLayer float64 `json:"r_interlayer,omitempty"`
}

// MemorySpec holds the memory-system switches.
type MemorySpec struct {
	// ScaleWithChip switches to system-wide DVFS: memory latency scales
	// with the chip clock (the analytical model's assumption).
	ScaleWithChip bool `json:"scale_with_chip,omitempty"`
	// Prefetch enables the hierarchy's next-line prefetcher.
	Prefetch bool `json:"prefetch,omitempty"`
}

// Baseline returns the paper's chip: the 16-way homogeneous 65 nm CMP
// with the chip-wide 200 MHz ladder on the Table 1 die. Building a rig
// from it reproduces the legacy flag-era apparatus bit for bit.
func Baseline() *Scenario {
	s := &Scenario{
		Name:        "baseline-2005",
		Description: "Paper Table 1: 16-way homogeneous 65nm CMP, chip-wide DVFS, planar die",
	}
	s.Normalize()
	return s
}

// Normalize fills every defaulted field in place so that the canonical
// form is fully explicit. It is idempotent and never invalidates an
// already-valid scenario.
func (s *Scenario) Normalize() {
	if s.Name == "" {
		s.Name = "unnamed"
	}
	if s.Node == "" {
		s.Node = "65nm"
	}
	if s.Chip.TotalCores == 0 {
		s.Chip.TotalCores = 16
	}
	if s.Chip.DieWMm == 0 {
		s.Chip.DieWMm = 15.6
	}
	if s.Chip.DieHMm == 0 {
		s.Chip.DieHMm = 15.6
	}
	if s.Chip.L2Banks == 0 {
		s.Chip.L2Banks = 4
	}
	if s.Chip.Layers == 0 {
		s.Chip.Layers = 1
	}
	if s.DVFS.LadderMinMHz == 0 {
		s.DVFS.LadderMinMHz = 200
	}
	if s.DVFS.LadderStepMHz == 0 {
		s.DVFS.LadderStepMHz = 200
	}
	for i := range s.DVFS.Domains {
		if s.DVFS.Domains[i].SpeedRatio == 0 {
			s.DVFS.Domains[i].SpeedRatio = 1
		}
	}
	for i := range s.Cores.Classes {
		if s.Cores.Classes[i].IPCScale == 0 {
			s.Cores.Classes[i].IPCScale = 1
		}
	}
}

// Validate rejects a malformed scenario with the first problem found.
// Callers should Normalize first; Load does both.
func (s *Scenario) Validate() error {
	if strings.TrimSpace(s.Name) == "" || strings.ContainsAny(s.Name, "\n\r") {
		return fmt.Errorf("scenario: invalid name %q", s.Name)
	}
	tech, err := phys.TechByName(s.Node)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	c := s.Chip
	switch {
	case c.TotalCores < 1 || c.TotalCores > 256:
		return fmt.Errorf("scenario %s: total_cores %d outside [1,256]", s.Name, c.TotalCores)
	case c.DieWMm <= 0 || c.DieWMm > 100 || c.DieHMm <= 0 || c.DieHMm > 100:
		return fmt.Errorf("scenario %s: die %g×%g mm outside (0,100]", s.Name, c.DieWMm, c.DieHMm)
	case c.L2Banks < 1 || c.L2Banks > 64:
		return fmt.Errorf("scenario %s: l2_banks %d outside [1,64]", s.Name, c.L2Banks)
	case c.Layers < 1 || c.Layers > 8:
		return fmt.Errorf("scenario %s: layers %d outside [1,8]", s.Name, c.Layers)
	case c.TotalCores%c.Layers != 0:
		return fmt.Errorf("scenario %s: layer/floorplan mismatch: total_cores %d not divisible by layers %d",
			s.Name, c.TotalCores, c.Layers)
	}
	d := s.DVFS
	minHz, stepHz := d.LadderMinMHz*1e6, d.LadderStepMHz*1e6
	switch {
	case minHz <= 0 || stepHz <= 0:
		return fmt.Errorf("scenario %s: non-monotone DVFS ladder: min %g MHz step %g MHz must be positive",
			s.Name, d.LadderMinMHz, d.LadderStepMHz)
	case minHz > tech.FNominal:
		return fmt.Errorf("scenario %s: non-monotone DVFS ladder: min %g MHz above %s nominal %g MHz",
			s.Name, d.LadderMinMHz, tech.Name, tech.FNominal/1e6)
	}
	if len(d.Domains) > 0 {
		assigned := make([]string, c.TotalCores)
		seen := make(map[string]bool, len(d.Domains))
		for _, dom := range d.Domains {
			if strings.TrimSpace(dom.Name) == "" {
				return fmt.Errorf("scenario %s: domain with empty name", s.Name)
			}
			if seen[dom.Name] {
				return fmt.Errorf("scenario %s: duplicate domain %q", s.Name, dom.Name)
			}
			seen[dom.Name] = true
			if dom.SpeedRatio < 0 || dom.SpeedRatio > 1 {
				return fmt.Errorf("scenario %s: domain %q speed_ratio %g outside (0,1]",
					s.Name, dom.Name, dom.SpeedRatio)
			}
			if len(dom.Cores) == 0 {
				return fmt.Errorf("scenario %s: domain %q has no cores", s.Name, dom.Name)
			}
			for _, core := range dom.Cores {
				if core < 0 || core >= c.TotalCores {
					return fmt.Errorf("scenario %s: domain %q core %d outside [0,%d)",
						s.Name, dom.Name, core, c.TotalCores)
				}
				if prev := assigned[core]; prev != "" {
					return fmt.Errorf("scenario %s: overlapping domains: core %d in both %q and %q",
						s.Name, core, prev, dom.Name)
				}
				assigned[core] = dom.Name
			}
		}
		for core, name := range assigned {
			if name == "" {
				return fmt.Errorf("scenario %s: core %d not covered by any domain", s.Name, core)
			}
		}
	}
	classes := make(map[string]bool, len(s.Cores.Classes))
	for _, cl := range s.Cores.Classes {
		if strings.TrimSpace(cl.Name) == "" {
			return fmt.Errorf("scenario %s: core class with empty name", s.Name)
		}
		if classes[cl.Name] {
			return fmt.Errorf("scenario %s: duplicate core class %q", s.Name, cl.Name)
		}
		classes[cl.Name] = true
		if cl.IssueWidth < 0 || cl.IssueWidth > 16 {
			return fmt.Errorf("scenario %s: class %q issue_width %d outside [0,16]", s.Name, cl.Name, cl.IssueWidth)
		}
		if cl.IPCScale < 0 || cl.IPCScale > 4 {
			return fmt.Errorf("scenario %s: class %q ipc_scale %g outside (0,4]", s.Name, cl.Name, cl.IPCScale)
		}
	}
	if len(s.Cores.Assign) > 0 {
		if len(s.Cores.Assign) != c.TotalCores {
			return fmt.Errorf("scenario %s: cores.assign has %d entries, want total_cores %d",
				s.Name, len(s.Cores.Assign), c.TotalCores)
		}
		for core, name := range s.Cores.Assign {
			if !classes[name] {
				return fmt.Errorf("scenario %s: core %d assigned to unknown class %q", s.Name, core, name)
			}
		}
	}
	if s.Thermal.RInterLayer < 0 {
		return fmt.Errorf("scenario %s: r_interlayer %g must be >= 0", s.Name, s.Thermal.RInterLayer)
	}
	return nil
}

// Technology resolves the scenario's node. Call after Validate.
func (s *Scenario) Technology() phys.Technology {
	t, err := phys.TechByName(s.Node)
	if err != nil {
		panic(err) // Validate rejects unknown nodes.
	}
	return t
}

// Load strictly decodes one scenario document, normalizes it, and
// validates it. Unknown fields are errors: a typoed knob must never
// silently mean the default chip.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	// Exactly one document per file.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after document")
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile is Load on a file path.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}

// Canonical returns the deterministic JSON encoding of the normalized
// scenario: every defaulted field explicit, fields in declaration order
// (encoding/json's contract for structs). Two scenarios meaning the same
// chip canonicalize to equal bytes.
func (s *Scenario) Canonical() ([]byte, error) {
	c := s.clone()
	c.Normalize()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// Digest returns the sha256 hex digest of the canonical form. It is the
// scenario's cache identity across the memo, response, and surrogate
// layers. Digest panics only on an invalid scenario; validate first.
func (s *Scenario) Digest() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ShortDigest is the first 12 hex characters of Digest, for reports.
func (s *Scenario) ShortDigest() (string, error) {
	d, err := s.Digest()
	if err != nil {
		return "", err
	}
	return d[:12], nil
}

// IsBaseline reports whether the scenario canonicalizes to the same chip
// as Baseline, name and description excluded: rigs built from such a
// scenario take the legacy identity (empty digest) in every cache key,
// so baseline-scenario runs and flag-era runs share caches bit for bit.
func (s *Scenario) IsBaseline() (bool, error) {
	a := s.clone()
	a.Name, a.Description = "", ""
	b := Baseline()
	b.Name, b.Description = "", ""
	ca, err := a.Canonical()
	if err != nil {
		return false, err
	}
	cb, err := b.Canonical()
	if err != nil {
		return false, err
	}
	return bytes.Equal(ca, cb), nil
}

// clone deep-copies the scenario.
func (s *Scenario) clone() *Scenario {
	c := *s
	c.DVFS.Domains = make([]DomainSpec, len(s.DVFS.Domains))
	for i, d := range s.DVFS.Domains {
		c.DVFS.Domains[i] = d
		c.DVFS.Domains[i].Cores = append([]int(nil), d.Cores...)
	}
	c.Cores.Classes = append([]CoreClass(nil), s.Cores.Classes...)
	c.Cores.Assign = append([]string(nil), s.Cores.Assign...)
	return &c
}

// Clone returns an independent deep copy.
func (s *Scenario) Clone() *Scenario { return s.clone() }

// Heterogeneous reports whether the scenario departs from lock-step
// homogeneous cores: any DVFS domain below ratio 1, or any non-default
// core class assignment.
func (s *Scenario) Heterogeneous() bool {
	for _, d := range s.DVFS.Domains {
		if d.SpeedRatio != 0 && d.SpeedRatio != 1 {
			return true
		}
	}
	for _, cl := range s.Cores.Classes {
		if len(s.Cores.Assign) > 0 && (cl.IssueWidth != 0 || (cl.IPCScale != 0 && cl.IPCScale != 1)) {
			return true
		}
	}
	return false
}

// ClassOf returns the class of physical core c, or nil for the default
// EV6-class core. Call after Validate.
func (s *Scenario) ClassOf(c int) *CoreClass {
	if len(s.Cores.Assign) == 0 || c < 0 || c >= len(s.Cores.Assign) {
		return nil
	}
	name := s.Cores.Assign[c]
	for i := range s.Cores.Classes {
		if s.Cores.Classes[i].Name == name {
			return &s.Cores.Classes[i]
		}
	}
	return nil
}

// Diff returns a human-readable field-by-field difference of the two
// scenarios' canonical forms (empty when they describe the same chip).
func Diff(a, b *Scenario) ([]string, error) {
	ca, err := a.Canonical()
	if err != nil {
		return nil, err
	}
	cb, err := b.Canonical()
	if err != nil {
		return nil, err
	}
	var ma, mb map[string]any
	if err := json.Unmarshal(ca, &ma); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(cb, &mb); err != nil {
		return nil, err
	}
	var out []string
	diffValue("", ma, mb, &out)
	return out, nil
}

// diffValue walks two decoded JSON values and records leaf differences
// as "path: a -> b" lines, in sorted key order.
func diffValue(path string, a, b any, out *[]string) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			*out = append(*out, fmt.Sprintf("%s: %s -> %s", path, renderJSON(a), renderJSON(b)))
			return
		}
		keys := make(map[string]bool, len(av)+len(bv))
		for k := range av {
			keys[k] = true
		}
		for k := range bv {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sortStrings(sorted)
		for _, k := range sorted {
			sub := k
			if path != "" {
				sub = path + "." + k
			}
			x, xok := av[k]
			y, yok := bv[k]
			switch {
			case !xok:
				*out = append(*out, fmt.Sprintf("%s: (absent) -> %s", sub, renderJSON(y)))
			case !yok:
				*out = append(*out, fmt.Sprintf("%s: %s -> (absent)", sub, renderJSON(x)))
			default:
				diffValue(sub, x, y, out)
			}
		}
	default:
		if renderJSON(a) != renderJSON(b) {
			*out = append(*out, fmt.Sprintf("%s: %s -> %s", path, renderJSON(a), renderJSON(b)))
		}
	}
}

func renderJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}

// sortStrings is a tiny insertion sort: key sets here are single digits
// of entries, and it keeps the package free of extra imports.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

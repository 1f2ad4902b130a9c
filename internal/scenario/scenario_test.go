package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"cmppower/internal/check"
	"cmppower/internal/dvfs"
)

func TestBaselineValidAndStableDigest(t *testing.T) {
	s := Baseline()
	if err := s.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	d1, err := s.Digest()
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	d2, err := Baseline().Digest()
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	if d1 != d2 {
		t.Errorf("baseline digest unstable: %s vs %s", d1, d2)
	}
	if len(d1) != 64 {
		t.Errorf("digest length %d, want 64 hex chars", len(d1))
	}
	ok, err := s.IsBaseline()
	if err != nil || !ok {
		t.Errorf("Baseline().IsBaseline() = %v, %v; want true", ok, err)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	s := &Scenario{Name: "x"}
	s.Normalize()
	c1, err := s.Canonical()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	s.Normalize()
	c2, err := s.Canonical()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	if string(c1) != string(c2) {
		t.Error("Normalize not idempotent")
	}
}

func TestLoadRoundTripsCanonical(t *testing.T) {
	src := `{
		"name": "biglittle-test",
		"node": "90nm",
		"chip": {"total_cores": 8},
		"dvfs": {"domains": [
			{"name": "big", "cores": [0,1,2,3]},
			{"name": "little", "cores": [4,5,6,7], "speed_ratio": 0.5}
		]},
		"cores": {
			"classes": [{"name": "big", "issue_width": 6}, {"name": "little", "issue_width": 2, "ipc_scale": 0.6}],
			"assign": ["big","big","big","big","little","little","little","little"]
		},
		"thermal": {},
		"memory": {}
	}`
	s, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	can, err := s.Canonical()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	s2, err := Load(strings.NewReader(string(can)))
	if err != nil {
		t.Fatalf("reload canonical: %v", err)
	}
	d1, _ := s.Digest()
	d2, _ := s2.Digest()
	if d1 != d2 {
		t.Errorf("canonical round trip changed digest: %s vs %s", d1, d2)
	}
	if !s.Heterogeneous() {
		t.Error("big/little scenario should report heterogeneous")
	}
	if cl := s.ClassOf(5); cl == nil || cl.Name != "little" {
		t.Errorf("ClassOf(5) = %+v, want little", cl)
	}
	if cl := s.ClassOf(0); cl == nil || cl.Name != "big" {
		t.Errorf("ClassOf(0) = %+v, want big", cl)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"name":"x","chip":{"totel_cores":8}}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("typoed field accepted: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	mod := func(f func(*Scenario)) *Scenario {
		s := Baseline()
		f(s)
		return s
	}
	cases := []struct {
		name string
		s    *Scenario
		want string
	}{
		{"unknown node", mod(func(s *Scenario) { s.Node = "45nm" }), "unknown technology node"},
		{"overlapping domains", mod(func(s *Scenario) {
			s.DVFS.Domains = []DomainSpec{
				{Name: "a", Cores: []int{0, 1, 2, 3, 4, 5, 6, 7}, SpeedRatio: 1},
				{Name: "b", Cores: []int{7, 8, 9, 10, 11, 12, 13, 14, 15}, SpeedRatio: 1},
			}
		}), "overlapping domains"},
		{"uncovered core", mod(func(s *Scenario) {
			s.DVFS.Domains = []DomainSpec{{Name: "a", Cores: []int{0, 1}, SpeedRatio: 1}}
		}), "not covered by any domain"},
		{"layer mismatch", mod(func(s *Scenario) { s.Chip.TotalCores = 6; s.Chip.Layers = 4 }),
			"layer/floorplan mismatch"},
		{"too many layers", mod(func(s *Scenario) { s.Chip.Layers = 9 }), "layers 9 outside"},
		{"non-monotone ladder", mod(func(s *Scenario) { s.DVFS.LadderMinMHz = 9000 }),
			"non-monotone DVFS ladder"},
		{"negative step", mod(func(s *Scenario) { s.DVFS.LadderStepMHz = -200 }),
			"non-monotone DVFS ladder"},
		{"assign length", mod(func(s *Scenario) {
			s.Cores.Classes = []CoreClass{{Name: "big", IPCScale: 1}}
			s.Cores.Assign = []string{"big"}
		}), "cores.assign has 1 entries"},
		{"unknown class", mod(func(s *Scenario) {
			s.Cores.Classes = []CoreClass{{Name: "big", IPCScale: 1}}
			s.Cores.Assign = make([]string, 16)
			for i := range s.Cores.Assign {
				s.Cores.Assign[i] = "big"
			}
			s.Cores.Assign[3] = "huge"
		}), "unknown class"},
		{"too many cores", mod(func(s *Scenario) { s.Chip.TotalCores = 257 }), "total_cores 257 outside"},
		{"duplicate domain", mod(func(s *Scenario) {
			s.DVFS.Domains = []DomainSpec{
				{Name: "a", Cores: []int{0, 1, 2, 3, 4, 5, 6, 7}, SpeedRatio: 1},
				{Name: "a", Cores: []int{8, 9, 10, 11, 12, 13, 14, 15}, SpeedRatio: 1},
			}
		}), "duplicate domain"},
		{"bad ratio", mod(func(s *Scenario) {
			s.DVFS.Domains = []DomainSpec{{Name: "a", Cores: []int{0}, SpeedRatio: 1.5}}
			s.Chip.TotalCores = 1
		}), "speed_ratio"},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q lacks %q", tc.name, err, tc.want)
		}
	}
	// The ladder's length is bounded by dvfs.MaxPoints, and the refusal
	// names the step; a ladder of exactly that many points is accepted.
	for _, step := range []float64{1e-6, 1e-15} {
		var ce *check.Error
		if err := mod(func(s *Scenario) { s.DVFS.LadderStepMHz = step }).Validate(); !errors.As(err, &ce) || ce.Field != "ladder_step_mhz" {
			t.Errorf("ladder_step_mhz %g: got %v, want a *check.Error on ladder_step_mhz", step, err)
		}
	}
	full := mod(func(s *Scenario) {
		s.DVFS.LadderStepMHz = 0.5
		s.DVFS.LadderMinMHz = 3200 - (dvfs.MaxPoints-1)*0.5
	})
	if err := full.Validate(); err != nil {
		t.Errorf("ladder of exactly %d points refused: %v", dvfs.MaxPoints, err)
	}
	// Every float field rejects NaN and ±Inf with a typed error naming
	// it; a range test in the v < lo || v > hi form passes NaN. JSON
	// cannot carry these values, but Go callers can.
	floats := map[string]func(*Scenario, float64){
		"die_w_mm":        func(s *Scenario, v float64) { s.Chip.DieWMm = v },
		"die_h_mm":        func(s *Scenario, v float64) { s.Chip.DieHMm = v },
		"ladder_min_mhz":  func(s *Scenario, v float64) { s.DVFS.LadderMinMHz = v },
		"ladder_step_mhz": func(s *Scenario, v float64) { s.DVFS.LadderStepMHz = v },
		"speed_ratio": func(s *Scenario, v float64) {
			s.DVFS.Domains = []DomainSpec{{Name: "all", Cores: make([]int, 16), SpeedRatio: v}}
			for i := range s.DVFS.Domains[0].Cores {
				s.DVFS.Domains[0].Cores[i] = i
			}
		},
		"ipc_scale":    func(s *Scenario, v float64) { s.Cores.Classes = []CoreClass{{Name: "c", IPCScale: v}} },
		"r_interlayer": func(s *Scenario, v float64) { s.Thermal.RInterLayer = v },
	}
	for field, set := range floats {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := Baseline()
			set(s, v)
			var ce *check.Error
			if err := s.Validate(); !errors.As(err, &ce) || ce.Field != field {
				t.Errorf("%s = %g: got %v, want a *check.Error on %s", field, v, err, field)
			}
		}
	}
}

func TestDigestDistinguishesChips(t *testing.T) {
	base, _ := Baseline().Digest()
	seen := map[string]string{"baseline": base}
	variants := map[string]func(*Scenario){
		"90nm":     func(s *Scenario) { s.Node = "90nm" },
		"3dstack":  func(s *Scenario) { s.Chip.Layers = 4 },
		"manycore": func(s *Scenario) { s.Chip.TotalCores = 128 },
		"quantize": func(s *Scenario) { s.DVFS.Quantize = true },
	}
	for name, f := range variants {
		s := Baseline()
		f(s)
		d, err := s.Digest()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for prev, pd := range seen {
			if pd == d {
				t.Errorf("digest collision: %s == %s", name, prev)
			}
		}
		seen[name] = d
	}
}

func TestDigestIgnoresNameNotChip(t *testing.T) {
	// Name is part of the document and so of the digest, but IsBaseline
	// must see through it.
	s := Baseline()
	s.Name = "renamed"
	ok, err := s.IsBaseline()
	if err != nil || !ok {
		t.Errorf("renamed baseline IsBaseline = %v, %v; want true", ok, err)
	}
	s.Chip.TotalCores = 8
	ok, err = s.IsBaseline()
	if err != nil || ok {
		t.Errorf("8-core chip IsBaseline = %v, %v; want false", ok, err)
	}
}

// TestIdentityMatchesDigest: Identity's one canonicalization gives the
// canonical copy Canonical renders, the empty identity exactly for
// baseline chips (name and description aside) and Digest for every
// other chip, on every example scenario and on variants of them.
func TestIdentityMatchesDigest(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	var docs []*Scenario
	for _, p := range paths {
		s, err := LoadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, s)
	}
	renamed := Baseline()
	renamed.Name, renamed.Description = "someone-elses-baseline", "same chip"
	unnamed := &Scenario{} // every field defaulted
	mid := Baseline()
	mid.Name, mid.DVFS.LadderStepMHz = "mid-step", 100
	docs = append(docs, Baseline(), renamed, unnamed, mid)
	for _, s := range docs {
		before, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		canon, ident, err := s.Identity()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if after, _ := json.Marshal(s); !bytes.Equal(after, before) {
			t.Errorf("%s: Identity modified its receiver", s.Name)
		}
		want, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := json.Marshal(canon); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: canonical copy renders %s, want %s", s.Name, got, want)
		}
		anon := s.Clone()
		anon.Name, anon.Description = "", ""
		a, err := anon.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		b, err := baselineIdentity()
		if err != nil {
			t.Fatal(err)
		}
		wantIdent := ""
		if !bytes.Equal(a, b) {
			if wantIdent, err = s.Digest(); err != nil {
				t.Fatal(err)
			}
		}
		if ident != wantIdent {
			t.Errorf("%s: identity %q, want %q", s.Name, ident, wantIdent)
		}
	}
	bad := Baseline()
	bad.Chip.Layers = 3
	if _, _, err := bad.Identity(); err == nil {
		t.Error("Identity accepted an invalid scenario")
	}
}

func TestDiff(t *testing.T) {
	a := Baseline()
	b := Baseline()
	b.Node = "90nm"
	b.Chip.Layers = 2
	lines, err := Diff(a, b)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "node") || !strings.Contains(joined, "layers") {
		t.Errorf("diff missing expected fields:\n%s", joined)
	}
	same, err := Diff(a, Baseline())
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if len(same) != 0 {
		t.Errorf("identical scenarios diff non-empty: %v", same)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := Baseline()
	s.DVFS.Domains = []DomainSpec{{Name: "all", Cores: []int{0}, SpeedRatio: 1}}
	s.Chip.TotalCores = 1
	c := s.Clone()
	c.DVFS.Domains[0].Cores[0] = 99
	if s.DVFS.Domains[0].Cores[0] == 99 {
		t.Error("Clone shares domain core slices")
	}
}

package main

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// out is `go test -bench` output as the basket's binaries print it, with
// a custom per-unit metric on each line and one sub-benchmark family.
const out = `goos: linux
goarch: amd64
pkg: cmppower/internal/cache
cpu: Intel(R) Xeon(R) Processor
BenchmarkHierarchyAccess/n=1-2         	     100	   1157714 ns/op	     11904 misses/op	        48.23 ns/access
BenchmarkHierarchyAccess/n=16-2        	     100	   1881951 ns/op	     16590 misses/op	        78.41 ns/access
BenchmarkStreamServeMix                	    4000	    122916 ns/op	     17743 events/op	         6.927 ns/event	    7439 B/op	      49 allocs/op
BenchmarkBroken-2                      	     100	   garbage ns/op
--- FAIL: BenchmarkOther
PASS
`

func TestParse(t *testing.T) {
	lines := parse(out)
	want := []struct {
		name        string
		nsOp        float64
		unit        string
		perUnitCost float64
	}{
		{"BenchmarkHierarchyAccess/n=1", 1157714, "ns/access", 48.23},
		{"BenchmarkHierarchyAccess/n=16", 1881951, "ns/access", 78.41},
		{"BenchmarkStreamServeMix", 122916, "ns/event", 6.927},
	}
	if len(lines) != len(want) {
		t.Fatalf("parsed %d lines, want %d: %v", len(lines), len(want), lines)
	}
	for i, w := range want {
		l := lines[i]
		if l.name != w.name || l.res["ns/op"] != w.nsOp || l.res[w.unit] != w.perUnitCost {
			t.Errorf("line %d = %s %v, want %s %g ns/op %g %s", i, l.name, l.res, w.name, w.nsOp, w.perUnitCost, w.unit)
		}
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkCampaign-2":                "BenchmarkCampaign",
		"BenchmarkCampaign":                  "BenchmarkCampaign",
		"BenchmarkHierarchyAccess/n=16":      "BenchmarkHierarchyAccess/n=16",
		"BenchmarkSampledOverhead/FFT/n1-16": "BenchmarkSampledOverhead/FFT/n1",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestOrderABBA: each round runs both sides once, and the side that goes
// first alternates from round to round, BASE first in round 0.
func TestOrderABBA(t *testing.T) {
	var seq []int
	for round := range 4 {
		o := order(round)
		if o[0] == o[1] {
			t.Fatalf("round %d runs one side twice: %v", round, o)
		}
		seq = append(seq, o[:]...)
	}
	want := []int{base, head, head, base, base, head, head, base}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("order over 4 rounds = %v, want %v", seq, want)
		}
	}
}

// testSeries builds a series of one benchmark whose rounds took the given
// ns/op on each side; a nil side lacks the benchmark.
func testSeries(b *bench, baseNs, headNs []float64) *series {
	s := &series{b: b}
	for i := range max(len(baseNs), len(headNs)) {
		for side, ns := range [2][]float64{baseNs, headNs} {
			var lines []line
			if ns != nil {
				lines = []line{{b.name, result{"ns/op": ns[i], "ns/access": ns[i] / 10}}}
			}
			s.add(side, lines)
		}
	}
	return s
}

// TestJudge: the score is the median of the per-round HEAD/BASE ratios,
// so one disturbed round does not move it, and the gate fails only above
// 1 + bound.
func TestJudge(t *testing.T) {
	b := &bench{name: "BenchmarkX", metric: "ns/access", scale: 1, bound: 0.05}
	for _, tc := range []struct {
		name         string
		baseNs, head []float64
		ratio        float64
		fail         bool
	}{
		{"equal", []float64{100, 100, 100}, []float64{100, 100, 100}, 1, false},
		{"one disturbed round", []float64{100, 100, 100}, []float64{104, 300, 102}, 1.04, false},
		{"drift on both sides", []float64{100, 200, 400}, []float64{103, 206, 412}, 1.03, false},
		{"faster", []float64{100, 100}, []float64{80, 90}, 0.85, false},
		{"at the bound", []float64{100, 100, 100}, []float64{105, 105, 105}, 1.05, false},
		{"slower", []float64{100, 100, 100}, []float64{110, 90, 108}, 1.08, true},
	} {
		v := testSeries(b, tc.baseNs, tc.head).judge()
		if math.Abs(v.ratio-tc.ratio) > 1e-9 || v.fail != tc.fail {
			t.Errorf("%s: ratio %g fail %t, want %g %t", tc.name, v.ratio, v.fail, tc.ratio, tc.fail)
		}
	}
}

// TestJudgeSubBenchmarks: each result line both sides report gives one
// ratio per round, so a sub-benchmark only HEAD has does not count, and
// the score is the median over lines and rounds.
func TestJudgeSubBenchmarks(t *testing.T) {
	s := &series{b: &bench{name: "BenchmarkX", bound: 0.05}}
	s.add(base, []line{{"BenchmarkX/a", result{"ns/op": 100}}, {"BenchmarkX/b", result{"ns/op": 300}}})
	s.add(head, []line{{"BenchmarkX/a", result{"ns/op": 140}}, {"BenchmarkX/b", result{"ns/op": 300}},
		{"BenchmarkX/new", result{"ns/op": 1e9}}, {"BenchmarkY", result{"ns/op": 1e9}}})
	s.add(base, []line{{"BenchmarkX/a", result{"ns/op": 100}}, {"BenchmarkX/b", result{"ns/op": 100}}})
	s.add(head, []line{{"BenchmarkX/a", result{"ns/op": 102}}, {"BenchmarkX/b", result{"ns/op": 101}}})
	got := s.ratios()
	slices.Sort(got)
	if want := []float64{1, 1.01, 1.02, 1.4}; !slices.Equal(got, want) {
		t.Errorf("ratios = %v, want %v", got, want)
	}
	if v := s.judge(); math.Abs(v.ratio-1.015) > 1e-9 || v.fail {
		t.Errorf("judge = %+v, want ratio 1.015, pass", v)
	}
	if want := []string{"BenchmarkX/a", "BenchmarkX/b", "BenchmarkX/new"}; strings.Join(s.names, " ") != strings.Join(want, " ") {
		t.Errorf("names = %v, want %v", s.names, want)
	}
}

// TestMissing: a basket benchmark BASE lacks is reported with HEAD's cost
// but not gated; one HEAD lacks fails the gate.
func TestMissing(t *testing.T) {
	b := &bench{name: "BenchmarkCampaign", unit: "ms/campaign", metric: "ns/op", scale: 1e6, bound: 0.05}
	atBase := testSeries(b, nil, []float64{5e8, 6e8})
	if v := atBase.judge(); v.fail || v.ratio != 0 || !strings.Contains(v.note, "not gated") {
		t.Errorf("missing at BASE: %+v, want reported, not gated", v)
	}
	if c := atBase.cost(head, b.name); c != 550 {
		t.Errorf("HEAD cost %g ms/campaign, want 550", c)
	}
	if c := atBase.cost(base, b.name); c != 0 {
		t.Errorf("BASE cost %g, want 0", c)
	}
	if v := testSeries(b, []float64{5e8}, nil).judge(); !v.fail {
		t.Errorf("missing at HEAD: %+v, want a failure", v)
	}

	var w bytes.Buffer
	if report(&w, []*series{atBase}) {
		t.Errorf("report failed on a benchmark missing at BASE:\n%s", w.String())
	}
	if !strings.Contains(w.String(), "missing at BASE, not gated") || !strings.Contains(w.String(), "550") {
		t.Errorf("report does not show the ungated benchmark and HEAD's cost:\n%s", w.String())
	}
}

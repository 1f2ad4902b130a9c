package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	inf := math.Inf(1)
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	for _, tc := range []struct {
		name    string
		samples []float64
		q, want float64
	}{
		{"odd median", []float64{3, 1, 2}, 0.5, 2},
		{"even median takes the lower", []float64{4, 1, 3, 2}, 0.5, 2},
		{"p99 of 100", hundred, 0.99, 99},
		{"p100 is the maximum", hundred, 1, 100},
		{"tiny q is the minimum", []float64{5, 7}, 0.001, 5},
		{"one failure does not move the median", []float64{1, inf, 2, 3}, 0.5, 2},
		{"a failure is the tail", []float64{1, inf, 2, 3}, 0.99, inf},
		{"all failed", []float64{inf, inf}, 0.5, inf},
	} {
		if got := percentile(tc.samples, tc.q); got != tc.want {
			t.Errorf("%s: percentile(%v, %g) = %g, want %g", tc.name, tc.samples, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSchedulesDeterministicPerSeed(t *testing.T) {
	cfg := defaultConfig()
	for name, build := range map[string]func(seed uint64) (*schedule, error){
		"serve-exact": func(seed uint64) (*schedule, error) { return serveExactSchedule(cfg, seed, 2*time.Second) },
		"fleet-hot": func(seed uint64) (*schedule, error) {
			c := cfg
			c.seed = seed
			return fleetHotSchedule(c)
		},
	} {
		a, err := build(3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := build(3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := build(4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.calls) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two compiles with seed 3 differ (or are empty)", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 3 and 4 give the same schedule", name)
		}
	}
}

func TestFleetHotMix(t *testing.T) {
	s, err := fleetHotSchedule(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exact := make(map[string]bool)
	surrogate := 0
	for _, c := range s.calls {
		if c.surrogate {
			surrogate++
			if !bytes.Contains(c.body, []byte(`"mode":"surrogate"`)) {
				t.Fatalf("surrogate call without surrogate mode: %s", c.body)
			}
			continue
		}
		exact[string(c.body)] = true
	}
	if len(exact) != 60 {
		t.Errorf("exact key set has %d keys, want 60", len(exact))
	}
	if share := float64(surrogate) / float64(len(s.calls)); share < 0.13 || share > 0.17 {
		t.Errorf("surrogate share %.3f, want about 0.15", share)
	}
}

func TestSelfTimesNeverNegative(t *testing.T) {
	tr := newTracer()
	// A child replayed on its own can take longer than its parent.
	tr.spans = []span{
		{ID: 1, Name: "parent", Dur: 100},
		{ID: 2, Parent: 1, Name: "child", Dur: 150},
		{ID: 3, Parent: 2, Name: "grandchild", Dur: 40},
		{ID: 4, Name: "parent", Dur: 300},
		{ID: 5, Parent: 4, Name: "child", Dur: 100},
	}
	total, self := tr.layerTimes()
	for name, v := range self {
		if v < 0 {
			t.Errorf("self time of %s is %g", name, v)
		}
	}
	if want := 200e-9; math.Abs(self["parent"]-want) > 1e-15 {
		t.Errorf("parent self = %g, want %g (0 for the overshot span, 200 ns for the other)", self["parent"], want)
	}
	if want := 400e-9; math.Abs(total["parent"]-want) > 1e-15 {
		t.Errorf("parent total = %g, want %g", total["parent"], want)
	}
	sum, root := tr.treeSelf("parent")
	// 0 + 110 + 40 for the first tree, 200 + 100 for the second.
	if want := 450e-9; math.Abs(sum-want) > 1e-15 || math.Abs(root-400e-9) > 1e-15 {
		t.Errorf("treeSelf = (%g, %g), want (%g, 4e-07)", sum, root, want)
	}
}

func TestMetricDefinitions(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || len(d.name) > 64 || seen[d.name] {
			t.Errorf("bad or duplicate metric name %q", d.name)
		}
		seen[d.name] = true
	}

	// BENCHMARK.json must list exactly these metrics, with these units.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		section string
		got     []struct{ Name, Unit string }
		want    []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range tc.got {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("BENCHMARK.json %s = %v, want %v", tc.section, got, tc.want)
		}
	}
}

// TestSmoke runs every workload plain and traced for a fraction of a
// second at a tiny problem size, and checks the report line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, workload := range []string{"campaign", "campaign-dtm", "serve-exact", "fleet-hot"} {
		for _, traced := range []bool{false, true} {
			cfg := defaultConfig()
			cfg.workload, cfg.seed, cfg.trace = workload, 5, traced
			cfg.measure = 300 * time.Millisecond
			cfg.repo = ".."
			cfg.campaignScale, cfg.serveScale = 0.02, 0.05
			cfg.setups, cfg.replayRequests, cfg.hitReps = 2, 20, 1
			var out bytes.Buffer
			if code := run(context.Background(), cfg, &out); code != 0 {
				t.Fatalf("%s traced=%v: exit %d\n%s", workload, traced, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s traced=%v: last line is not the report: %v", workload, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 || len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: report %+v", workload, traced, rep)
			}
			for _, d := range want {
				if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or in the wrong unit", workload, traced, d.name)
				}
			}
		}
	}
}

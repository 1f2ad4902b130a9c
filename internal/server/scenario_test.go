package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cmppower/internal/experiment"
	"cmppower/internal/obs"
	"cmppower/internal/scenario"
	"cmppower/internal/splash"
)

// A run request carrying a chip scenario must simulate that chip and
// echo its content digest; a baseline-equivalent chip body must produce
// the exact measurement of the implicit-chip request (shared rig and
// caches), while still echoing its own digest.
func TestRunEndpointChipScenario(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Implicit baseline.
	status, plain := post(t, ts.Client(), ts.URL+"/v1/run", `{"app":"FFT","n":2,"scale":0.05,"seed":1}`)
	if status != http.StatusOK {
		t.Fatalf("baseline status %d: %s", status, plain)
	}
	var plainResp RunResponse
	if err := json.Unmarshal(plain, &plainResp); err != nil {
		t.Fatal(err)
	}
	if plainResp.ChipDigest != "" {
		t.Errorf("implicit-chip response carries chip_digest %q", plainResp.ChipDigest)
	}

	// Explicit baseline-equivalent chip: same measurement, digest echoed.
	status, base := post(t, ts.Client(), ts.URL+"/v1/run",
		`{"app":"FFT","n":2,"scale":0.05,"seed":1,"chip":{"name":"my-baseline"}}`)
	if status != http.StatusOK {
		t.Fatalf("baseline-chip status %d: %s", status, base)
	}
	var baseResp RunResponse
	if err := json.Unmarshal(base, &baseResp); err != nil {
		t.Fatal(err)
	}
	sc := &scenario.Scenario{Name: "my-baseline"}
	sc.Normalize()
	wantDigest, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if baseResp.ChipDigest != wantDigest {
		t.Errorf("chip_digest = %q, want %q", baseResp.ChipDigest, wantDigest)
	}
	if *baseResp.Measurement != *plainResp.Measurement {
		t.Errorf("baseline chip body diverged from implicit baseline:\n got %+v\nwant %+v",
			baseResp.Measurement, plainResp.Measurement)
	}

	// A genuinely different chip: runs, echoes a different digest, and
	// measures differently (90 nm silicon clocks lower).
	status, other := post(t, ts.Client(), ts.URL+"/v1/run",
		`{"app":"FFT","n":2,"scale":0.05,"seed":1,"chip":{"name":"old-node","node":"90nm"}}`)
	if status != http.StatusOK {
		t.Fatalf("90nm-chip status %d: %s", status, other)
	}
	var otherResp RunResponse
	if err := json.Unmarshal(other, &otherResp); err != nil {
		t.Fatal(err)
	}
	if otherResp.ChipDigest == "" || otherResp.ChipDigest == baseResp.ChipDigest {
		t.Errorf("90nm chip_digest %q not distinct from baseline %q", otherResp.ChipDigest, baseResp.ChipDigest)
	}
	if otherResp.Measurement.Seconds == plainResp.Measurement.Seconds {
		t.Errorf("90nm chip measured identically to 65nm baseline: %+v", otherResp.Measurement)
	}

	// The library agrees with the scenario-chip response exactly.
	sc90, err := scenario.Load(strings.NewReader(`{"name":"old-node","node":"90nm"}`))
	if err != nil {
		t.Fatal(err)
	}
	rig, err := experiment.NewRigFromScenario(sc90, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := splash.ByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	m, err := rig.RunApp(ap, 2, rig.Table.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if *otherResp.Measurement != *m {
		t.Errorf("served 90nm measurement differs from library:\n got %+v\nwant %+v", otherResp.Measurement, m)
	}
}

// Malformed chip scenarios must be rejected client-side with 400: an
// out-of-range field, a typoed knob (strict decoding), and a core count
// the chip cannot host.
func TestRunEndpointChipRejections(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"invalid chip", `{"app":"FFT","n":2,"chip":{"name":"bad","chip":{"total_cores":999}}}`},
		{"unknown field", `{"app":"FFT","n":2,"chip":{"name":"typo","chip":{"totel_cores":8}}}`},
		{"n beyond chip", `{"app":"FFT","n":16,"chip":{"name":"small","chip":{"total_cores":8}}}`},
		{"ladder too long", `{"app":"FFT","n":2,"chip":{"name":"fine","dvfs":{"ladder_step_mhz":1e-6}}}`},
	}
	for _, tc := range cases {
		status, body := post(t, ts.Client(), ts.URL+"/v1/run", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, status, body)
		}
	}

	// A chip with more cores than the baseline raises the bound instead:
	// n=32 validates against a 32-core chip (the sweep below proves the
	// request then runs end to end).
	status, body := post(t, ts.Client(), ts.URL+"/v1/run",
		`{"app":"FFT","n":32,"scale":0.02,"chip":{"name":"wide","chip":{"total_cores":32}}}`)
	if status != http.StatusOK {
		t.Fatalf("32-core chip run status %d: %s", status, body)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Measurement.N != 32 || resp.Measurement.PowerW <= 0 {
		t.Errorf("degenerate 32-core measurement: %+v", resp.Measurement)
	}
}

// A sweep request with a chip scenario echoes the digest and sweeps the
// scenario's chip.
func TestSweepEndpointChipScenario(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"scenario":"I","apps":["FFT"],"core_counts":[1,2],"scale":0.05,` +
		`"chip":{"name":"old-node","node":"90nm"}}`
	status, b := post(t, ts.Client(), ts.URL+"/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("sweep status %d: %s", status, b)
	}
	var resp SweepResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Load(strings.NewReader(`{"name":"old-node","node":"90nm"}`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ChipDigest != want {
		t.Errorf("sweep chip_digest = %q, want %q", resp.ChipDigest, want)
	}
	if len(resp.Outcomes) != 1 || resp.Outcomes[0].Error != "" || resp.Outcomes[0].I == nil {
		t.Fatalf("unexpected sweep outcomes: %s", b)
	}
}

// TestRigPoolOneRigPerChip pins the rig pool: every scale of a chip is a
// clone of one calibrated rig, scenario chips are evicted least recently
// used first, and the baseline chip is never evicted.
func TestRigPoolOneRigPerChip(t *testing.T) {
	reg := obs.NewRegistry()
	p := newRigPool(reg, experiment.DefaultMemoCapacity, nil)
	p.capacity = 2
	chip := func(node string) *scenario.Scenario {
		sc := scenario.Baseline()
		sc.Name, sc.Node = "pool-"+node, node
		return sc
	}
	get := func(sc *scenario.Scenario, scale float64) *experiment.Rig {
		t.Helper()
		rig, err := p.get(scale, sc)
		if err != nil {
			t.Fatal(err)
		}
		if rig.Scale != scale {
			t.Fatalf("rig scale %g, want %g", rig.Scale, scale)
		}
		return rig
	}

	a, b := get(nil, 0.05), get(nil, 0.1)
	if a == b || a.TM != b.TM || a.Cal != b.Cal {
		t.Error("two scales of the baseline chip are not clones of one rig")
	}
	get(chip("90nm"), 0.05)
	get(chip("130nm"), 0.05)
	get(chip("90nm"), 0.1) // 90nm becomes the most recently used chip
	stacked := scenario.Baseline()
	stacked.Name, stacked.Chip.Layers = "pool-stacked", 2
	get(stacked, 0.05) // evicts 130nm, the least recently used

	for _, c := range []struct {
		sc     *scenario.Scenario
		pooled bool
	}{{nil, true}, {chip("90nm"), true}, {chip("130nm"), false}, {stacked, true}} {
		ident, err := chipIdent(c.sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.chips[ident]; ok != c.pooled {
			t.Errorf("chip %q pooled = %t, want %t", ident, ok, c.pooled)
		}
	}
	if got := reg.Gauge("server_rigs").Value(); got != 3 {
		t.Errorf("server_rigs = %g, want 3", got)
	}
	if got := reg.Counter("server_rig_evictions_total").Value(); got != 1 {
		t.Errorf("server_rig_evictions_total = %d, want 1", got)
	}
}

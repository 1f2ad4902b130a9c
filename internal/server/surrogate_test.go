package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// warmSurrogate drives enough exact-mode traffic through the server for
// the app's fit to activate, then returns the grid bodies it used.
func warmSurrogate(t *testing.T, ts *httptest.Server, s *Server, app string, scale float64) {
	t.Helper()
	for _, n := range []int{1, 2, 4, 8} {
		for _, mhz := range []float64{3200, 2400, 1760} {
			for seed := 1; seed <= 2; seed++ {
				body := fmt.Sprintf(`{"app":%q,"n":%d,"scale":%g,"seed":%d,"freq_mhz":%g}`,
					app, n, scale, seed, mhz)
				if status, b := post(t, ts.Client(), ts.URL+"/v1/run", body); status != http.StatusOK {
					t.Fatalf("warm run status %d: %s", status, b)
				}
			}
		}
	}
	rig, err := s.rigs.get(scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := rig.SurrogateKey(app)
	if s.surr.FitFor(key) == nil {
		t.Fatalf("fit refused after warm grid: %s", s.surr.Reason(key))
	}
}

// TestRunSurrogateMode is the serving-layer contract: a warm fit answers
// surrogate-mode runs from the model with source and bound echoed, the
// served prediction agrees with the simulator within that bound, cold
// keys fall back to simulation, and the header spelling of the opt-in
// behaves like the body field.
func TestRunSurrogateMode(t *testing.T) {
	const scale = 0.05
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	warmSurrogate(t, ts, s, "FFT", scale)

	// In-region surrogate query: fresh seed, trained point.
	body := fmt.Sprintf(`{"app":"FFT","n":4,"scale":%g,"seed":77,"freq_mhz":2400,"mode":"surrogate"}`, scale)
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SurrogateRunResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || sr.Source != "surrogate" {
		t.Fatalf("status %d source %q, want 200/surrogate", resp.StatusCode, sr.Source)
	}
	if sr.Prediction == nil || sr.Measurement != nil {
		t.Fatalf("surrogate answer shape wrong: %+v", sr)
	}
	if !(sr.Bound > 0) {
		t.Fatalf("surrogate answer carries no bound: %+v", sr)
	}
	if got := resp.Header.Get(HeaderSource); got != "surrogate" {
		t.Errorf("%s = %q", HeaderSource, got)
	}
	if b, err := strconv.ParseFloat(resp.Header.Get(HeaderBound), 64); err != nil || b != sr.Bound {
		t.Errorf("%s = %q, want %g", HeaderBound, resp.Header.Get(HeaderBound), sr.Bound)
	}
	if hits := s.reg.Counter("surrogate_hits_total").Value(); hits != 1 {
		t.Errorf("surrogate_hits_total = %d, want 1", hits)
	}

	// The advertised bound must hold against the actual simulation.
	status, exact := post(t, ts.Client(), ts.URL+"/v1/run",
		fmt.Sprintf(`{"app":"FFT","n":4,"scale":%g,"seed":77,"freq_mhz":2400}`, scale))
	if status != http.StatusOK {
		t.Fatalf("exact replay status %d", status)
	}
	var rr RunResponse
	if err := json.Unmarshal(exact, &rr); err != nil {
		t.Fatal(err)
	}
	errT := math.Abs(sr.Prediction.Seconds-rr.Measurement.Seconds) / rr.Measurement.Seconds
	errP := math.Abs(sr.Prediction.PowerW-rr.Measurement.PowerW) / rr.Measurement.PowerW
	if errT > sr.Bound || errP > sr.Bound {
		t.Errorf("served prediction outside advertised bound %g: errT=%g errP=%g", sr.Bound, errT, errP)
	}

	// Cold key: no fit for LU yet, so surrogate mode falls back to a full
	// simulation labelled as such.
	status, fb := post(t, ts.Client(), ts.URL+"/v1/run",
		fmt.Sprintf(`{"app":"LU","n":2,"scale":%g,"seed":5,"mode":"surrogate"}`, scale))
	if status != http.StatusOK {
		t.Fatalf("fallback status %d: %s", status, fb)
	}
	var fbr SurrogateRunResponse
	if err := json.Unmarshal(fb, &fbr); err != nil {
		t.Fatal(err)
	}
	if fbr.Source != "simulation" || fbr.Measurement == nil || fbr.Prediction != nil || fbr.Bound != 0 {
		t.Errorf("fallback shape wrong: %+v", fbr)
	}
	if misses := s.reg.Counter("surrogate_misses_total").Value(); misses != 1 {
		t.Errorf("surrogate_misses_total = %d, want 1", misses)
	}

	// Header spelling: X-Cmppower-Approx is Mode "surrogate".
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run",
		strings.NewReader(fmt.Sprintf(`{"app":"FFT","n":4,"scale":%g,"seed":78,"freq_mhz":2400}`, scale)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderApprox, "1")
	hresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hr SurrogateRunResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Source != "surrogate" {
		t.Errorf("header opt-in served source %q, want surrogate", hr.Source)
	}

	// Mode validation.
	if status, _ := post(t, ts.Client(), ts.URL+"/v1/run",
		`{"app":"FFT","n":2,"mode":"psychic"}`); status != http.StatusBadRequest {
		t.Errorf("mode \"psychic\" accepted with status %d", status)
	}
}

// TestExactModeUnchangedBySurrogate: exact-mode responses are
// byte-identical with the surrogate on, off, and spelled "exact" — the
// fast path must be invisible unless asked for (doctor check 14 proves
// the same across worker counts).
func TestExactModeUnchangedBySurrogate(t *testing.T) {
	on := New(Config{Workers: 2})
	off := New(Config{Workers: 2, SurrogateOff: true})
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()

	warmSurrogate(t, tsOn, on, "FFT", 0.05)
	bodies := []string{
		`{"app":"FFT","n":4,"scale":0.05,"seed":9,"freq_mhz":2400}`,
		`{"app":"FFT","n":4,"scale":0.05,"seed":9,"freq_mhz":2400,"mode":"exact"}`,
	}
	var first []byte
	for _, body := range bodies {
		for _, ts := range []*httptest.Server{tsOn, tsOff} {
			status, got := post(t, ts.Client(), ts.URL+"/v1/run", body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, got)
			}
			if first == nil {
				first = got
				var rr RunResponse
				if err := json.Unmarshal(got, &rr); err != nil || rr.Measurement == nil {
					t.Fatalf("exact response shape wrong: %s", got)
				}
				continue
			}
			if !bytes.Equal(got, first) {
				t.Errorf("exact-mode response differs (surrogate on/off or mode spelling):\n got %s\nwant %s", got, first)
			}
		}
	}

	// SurrogateOff: surrogate-mode requests still work, always simulated.
	status, got := post(t, tsOff.Client(), tsOff.URL+"/v1/run",
		`{"app":"FFT","n":4,"scale":0.05,"seed":9,"freq_mhz":2400,"mode":"surrogate"}`)
	if status != http.StatusOK {
		t.Fatalf("surrogate-off status %d", status)
	}
	var sr SurrogateRunResponse
	if err := json.Unmarshal(got, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Source != "simulation" || sr.Measurement == nil {
		t.Errorf("surrogate-off served %+v, want simulation fallback", sr)
	}
}

// TestExploreSurrogateMode: surrogate-mode explorations return the full
// grid with per-cell provenance and a winner that was simulated; with no
// warm fits every cell is simulated and the outcome grid matches the
// exact-mode exploration.
func TestExploreSurrogateMode(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"apps":["FFT"],"scale":0.05,"mode":"surrogate"}`
	status, got := post(t, ts.Client(), ts.URL+"/v1/explore", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	var sr SurrogateExploreResponse
	if err := json.Unmarshal(got, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Pruned != 0 || sr.Simulated != len(sr.Outcomes) || len(sr.Outcomes) == 0 {
		t.Fatalf("cold-store exploration pruned %d of %d cells", sr.Pruned, len(sr.Outcomes))
	}
	for _, c := range sr.Outcomes {
		if c.Source != "simulation" {
			t.Errorf("cold-store cell %s/%s source %q", c.Option.Name, c.App, c.Source)
		}
	}
	status, exact := post(t, ts.Client(), ts.URL+"/v1/explore", `{"apps":["FFT"],"scale":0.05}`)
	if status != http.StatusOK {
		t.Fatalf("exact explore status %d", status)
	}
	var er ExploreResponse
	if err := json.Unmarshal(exact, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Outcomes) != len(sr.Outcomes) {
		t.Fatalf("grids differ: %d vs %d cells", len(er.Outcomes), len(sr.Outcomes))
	}
	for i := range er.Outcomes {
		if er.Outcomes[i] != sr.Outcomes[i].Outcome {
			t.Errorf("cell %d differs between exact and surrogate-mode exploration", i)
		}
	}
	for app, want := range er.BestEDP {
		if got := sr.BestEDP[app]; got != want {
			t.Errorf("%s: best %q vs exact %q", app, got, want)
		}
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cmppower/internal/check"
	"cmppower/internal/experiment"
	"cmppower/internal/splash"
	"cmppower/internal/traffic"
)

// post fires one JSON POST and returns status, body. Failures are
// reported with Errorf (not Fatal) so the helper is safe from client
// goroutines; callers see status 0.
func post(t *testing.T, client *http.Client, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read body: %v", err)
		return 0, nil
	}
	return resp.StatusCode, b
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunEndpointMatchesLibrary proves the serving layer is a transparent
// wrapper: the HTTP body is byte-identical to marshaling the direct
// library result, both on the computed response and on the cache hit.
func TestRunEndpointMatchesLibrary(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"app":"FFT","n":2,"scale":0.05,"seed":1}`
	status, got := post(t, ts.Client(), ts.URL+"/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, got)
	}

	rig, err := experiment.NewRig(0.05)
	if err != nil {
		t.Fatal(err)
	}
	app, err := splash.ByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	m, err := rig.RunAppSeeded(context.Background(), app, 2, rig.Table.Nominal(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&RunResponse{Measurement: m})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("served body differs from direct library marshal:\n got %s\nwant %s", got, want)
	}

	// Second identical request: served from the response cache,
	// byte-identical again.
	status, cached := post(t, ts.Client(), ts.URL+"/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("cached status %d", status)
	}
	if !bytes.Equal(cached, want) {
		t.Errorf("cached body differs from computed body")
	}
	if hits := s.reg.Counter("server_cache_hits_total").Value(); hits < 1 {
		t.Errorf("server_cache_hits_total = %d, want >= 1", hits)
	}

	// A second scale on the same server runs on a clone of the same
	// calibrated rig and still matches a fresh rig built at that scale.
	status, got = post(t, ts.Client(), ts.URL+"/v1/run", `{"app":"FFT","n":2,"scale":0.08,"seed":1}`)
	if status != http.StatusOK {
		t.Fatalf("scale 0.08 status %d, body %s", status, got)
	}
	fresh, err := experiment.NewRig(0.08)
	if err != nil {
		t.Fatal(err)
	}
	m, err = fresh.RunAppSeeded(context.Background(), app, 2, fresh.Table.Nominal(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if want, err = json.Marshal(&RunResponse{Measurement: m}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scale 0.08 body differs from direct library marshal:\n got %s\nwant %s", got, want)
	}
	// One calibration per chip, whatever the scales.
	if rigs := s.reg.Gauge("server_rigs").Value(); rigs != 1 {
		t.Errorf("server_rigs = %g after two scales of one chip, want 1", rigs)
	}
}

// TestPerClassMetrics: requests tagged with the traffic class header
// land in per-class counter and histogram families on /metrics, with
// untagged requests under the catch-all class, and every seen class's
// 429 counter visible at zero before any rejection.
func TestPerClassMetrics(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One tagged request, one untagged.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run",
		strings.NewReader(`{"app":"FFT","n":1,"scale":0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(traffic.HeaderClass, "interactive")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	post(t, ts.Client(), ts.URL+"/v1/run", `{"app":"LU","n":1,"scale":0.05}`)

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(b)
	for _, want := range []string{
		`server_class_requests_total{class="interactive"} 1`,
		`server_class_requests_total{class="other"} 1`,
		`server_class_429_total{class="interactive"} 0`,
		`server_class_request_seconds_count{class="interactive"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBadRequests exercises the validation layer: every malformed request
// is a 400 before it costs a worker slot.
func TestBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
	}{
		{"unknown app", "/v1/run", `{"app":"NoSuchApp","n":2}`},
		{"n out of range", "/v1/run", `{"app":"FFT","n":0}`},
		{"scale out of range", "/v1/run", `{"app":"FFT","n":2,"scale":9}`},
		{"unknown field", "/v1/run", `{"app":"FFT","n":2,"bogus":1}`},
		{"invalid json", "/v1/run", `{"app":`},
		{"bad fault spec", "/v1/sweep", `{"scenario":"I","apps":["FFT"],"faults":"nonsense"}`},
		{"bad scenario", "/v1/sweep", `{"scenario":"III"}`},
		{"bad retries", "/v1/sweep", `{"scenario":"I","retries":99}`},
		{"explore bad app", "/v1/explore", `{"apps":["Nope"]}`},
	}
	for _, tc := range cases {
		status, body := post(t, ts.Client(), ts.URL+tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", tc.name, status, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not the uniform shape", tc.name, body)
		}
	}

	// Wrong method is routing-level.
	resp, err := ts.Client().Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run status %d, want 405", resp.StatusCode)
	}
}

// TestValidateRejectsNonFinite: every float field of the request bodies
// refuses NaN and ±Inf with a *check.Error naming it. JSON cannot carry
// these values, but Go callers of Validate can; a NaN scale or an
// infinite freq_mhz used to pass, and a non-finite freq_mhz then ran
// silently at the nominal point.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, tc := range map[string]struct {
			field string
			req   interface {
				ApplyDefaults()
				Validate() error
			}
		}{
			"run scale":     {"scale", &RunRequest{App: "FFT", N: 2, Scale: v}},
			"run freq_mhz":  {"freq_mhz", &RunRequest{App: "FFT", N: 2, FreqMHz: v}},
			"sweep scale":   {"scale", &SweepRequest{Scenario: "I", Scale: v}},
			"explore scale": {"scale", &ExploreRequest{Scale: v}},
		} {
			tc.req.ApplyDefaults()
			var ce *check.Error
			if err := tc.req.Validate(); !errors.As(err, &ce) || ce.Field != tc.field {
				t.Errorf("%s = %g: got %v, want a *check.Error on %s", name, v, err, tc.field)
			}
		}
	}
}

// TestHealthAndMetrics covers the probe endpoints and the live metrics
// exposition.
func TestHealthAndMetrics(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
	}

	// One real request so the request counters exist.
	post(t, ts.Client(), ts.URL+"/v1/run", `{"app":"FFT","n":1,"scale":0.05}`)
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	for _, want := range []string{"server_requests_total", "server_computations_total", "memo_misses_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// Draining flips readiness to 503.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz status %d, want 503", resp.StatusCode)
	}
}

// TestCoalescing proves singleflight: N identical concurrent requests
// trigger exactly one simulation and all receive byte-identical bodies.
// The response cache is disabled so coalescing alone carries the load.
func TestCoalescing(t *testing.T) {
	const clients = 8
	s := New(Config{Workers: 4, CacheEntries: -1})
	s.testLeaderGate = make(chan struct{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := RunRequest{App: "FFT", N: 2, Scale: 0.05}
	req.ApplyDefaults()
	key := cacheKey("/v1/run", &req)
	body := `{"app":"FFT","n":2,"scale":0.05}`

	var wg sync.WaitGroup
	statuses := make([]int, clients)
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = post(t, ts.Client(), ts.URL+"/v1/run", body)
		}(i)
	}

	// All clients must be joined on the one flight before the leader may
	// compute.
	waitFor(t, "all clients coalesced", func() bool { return s.flights.refsOf(key) == clients })
	close(s.testLeaderGate)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d status %d", i, statuses[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d body differs", i)
		}
	}
	if n := s.reg.Counter("server_computations_total").Value(); n != 1 {
		t.Errorf("server_computations_total = %d, want 1 (coalescing failed)", n)
	}
	if n := s.reg.Counter("server_coalesced_total").Value(); n != clients-1 {
		t.Errorf("server_coalesced_total = %d, want %d", n, clients-1)
	}
}

// TestBackpressure proves admission control: with one worker and a
// one-deep queue, the third distinct request is rejected 429 with a
// Retry-After header while the first two eventually succeed.
func TestBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	s.testLeaderGate = make(chan struct{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fire := func(n int, status *int, body *[]byte, wg *sync.WaitGroup) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			*status, *body = post(t, ts.Client(), ts.URL+"/v1/run",
				fmt.Sprintf(`{"app":"FFT","n":%d,"scale":0.05}`, n))
		}()
	}

	var wg sync.WaitGroup
	var stA, stB int
	var bA, bB []byte
	fire(1, &stA, &bA, &wg)
	// A's leader holds the only slot (counted, then parked on the gate).
	waitFor(t, "A holding the worker slot", func() bool {
		return s.reg.Counter("server_computations_total").Value() == 1
	})
	fire(2, &stB, &bB, &wg)
	// B's leader is parked in the wait queue.
	waitFor(t, "B queued", func() bool { return s.adm.queued.Load() == 1 })

	// C overflows the queue: immediate 429 with Retry-After.
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"app":"FFT","n":4,"scale":0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("429 without Retry-After header")
	}
	if n := s.reg.Counter("server_admission_rejected_total").Value(); n != 1 {
		t.Errorf("server_admission_rejected_total = %d, want 1", n)
	}

	// Release the gate: A computes, frees the slot, B follows.
	close(s.testLeaderGate)
	wg.Wait()
	if stA != http.StatusOK || stB != http.StatusOK {
		t.Errorf("queued requests: A=%d B=%d, want 200/200 (bodies %s / %s)", stA, stB, bA, bB)
	}
}

// TestClientDisconnect499 proves a request whose client has gone away is
// answered 499, and the flight it was coalesced on keeps its own context
// until the last waiter leaves.
func TestClientDisconnect499(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: -1})
	gate := make(chan struct{})
	s.testLeaderGate = gate
	defer close(gate)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest(http.MethodPost, "/v1/run",
		strings.NewReader(`{"app":"FFT","n":2,"scale":0.05}`)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Errorf("disconnected client got %d, want %d", rec.Code, StatusClientClosedRequest)
	}
}

// TestCancelledSweepIs499NotTransient is the regression test for the
// joined-error classification: attempt() wraps a cancellation that lands
// during retry backoff as errors.Join(ctx.Err(), transientErr). The
// transient half must not demote the cancellation to a 500 — the client
// hung up, nothing is wrong with the server.
func TestCancelledSweepIs499NotTransient(t *testing.T) {
	s := New(Config{Workers: 1})
	req := &SweepRequest{Scenario: "I", Apps: []string{"FFT"}, CoreCounts: []int{1, 2},
		Scale: 0.05, Faults: "run-transient=1", Retries: 10}
	req.ApplyDefaults()
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	_, err := s.computeSweep(ctx, req)
	if err == nil {
		t.Fatal("cancelled all-transient sweep returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not carry context.Canceled: %v", err)
	}
	if got := statusOf(err); got != StatusClientClosedRequest {
		t.Errorf("statusOf(%v) = %d, want %d", err, got, StatusClientClosedRequest)
	}
}

// TestStatusOf pins the error → status mapping, most importantly that
// cancellation wins over any other classification an error also carries.
func TestStatusOf(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{&badRequestError{errors.New("x")}, http.StatusBadRequest},
		{&overloadError{RetryAfter: time.Second}, http.StatusTooManyRequests},
		{context.Canceled, StatusClientClosedRequest},
		{errors.Join(context.Canceled, errors.New("injected transient")), StatusClientClosedRequest},
		{fmt.Errorf("attempt 2: %w", errors.Join(context.Canceled, errors.New("t"))), StatusClientClosedRequest},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusOf(tc.err); got != tc.want {
			t.Errorf("statusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestGracefulShutdown drains a loaded server: every in-flight request
// completes 200, none is dropped, and Shutdown returns cleanly. Run under
// -race this also proves the drain sequencing has no data races.
func TestGracefulShutdown(t *testing.T) {
	const clients = 8
	s := New(Config{Workers: clients, CacheEntries: -1})
	s.testLeaderGate = make(chan struct{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Distinct requests (per-seed) so nothing coalesces: 8 in-flight
	// simulations, each holding a worker slot.
	var wg sync.WaitGroup
	statuses := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = post(t, http.DefaultClient, base+"/v1/run",
				fmt.Sprintf(`{"app":"FFT","n":2,"scale":0.05,"seed":%d}`, i+1))
		}(i)
	}
	waitFor(t, "all clients in flight", func() bool {
		return s.reg.Counter("server_computations_total").Value() == clients
	})

	// Shutdown concurrently with the in-flight work.
	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutErr <- s.Shutdown(ctx)
	}()
	waitFor(t, "draining flag", s.Draining)
	close(s.testLeaderGate)

	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("in-flight client %d dropped during drain: status %d", i, st)
		}
	}
	if err := <-shutErr; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve after shutdown: %v", err)
	}
}

// TestResponseCacheLRU pins the response cache's bound and eviction
// accounting at the unit level.
func TestResponseCacheLRU(t *testing.T) {
	c := newLRUCache(2)
	r := func(s string) *response { return &response{status: 200, body: []byte(s)} }
	c.put("a", r("a"))
	c.put("b", r("b"))
	if _, ok := c.get("a"); !ok { // refresh a → b is now LRU
		t.Fatal("a missing")
	}
	if ev := c.put("c", r("c")); ev != 1 {
		t.Errorf("evicted %d, want 1", ev)
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction; LRU order wrong")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if c.len() != 2 {
		t.Errorf("len %d, want 2", c.len())
	}
	// Disabled cache is inert.
	d := newLRUCache(-1)
	d.put("x", r("x"))
	if _, ok := d.get("x"); ok || d.len() != 0 {
		t.Error("disabled cache stored an entry")
	}
}

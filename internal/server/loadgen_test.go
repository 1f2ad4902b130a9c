package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cmppower/internal/check"
)

// TestLoadClosedLoop drives a fast stub server and checks the basic
// accounting: completed requests, throughput, ordered percentiles.
func TestLoadClosedLoop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	res, err := Load(context.Background(), LoadConfig{
		URL:         ts.URL,
		Body:        []byte(`{"app":"FFT","n":2}`),
		Duration:    200 * time.Millisecond,
		Concurrency: 4,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 1 {
		t.Fatalf("steps %d, want 1", len(res.Steps))
	}
	s := res.Steps[0]
	if s.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if s.Errors != 0 || !res.OK() {
		t.Errorf("errors=%d OK=%v", s.Errors, res.OK())
	}
	if s.ThroughputRPS <= 0 {
		t.Errorf("throughput %g", s.ThroughputRPS)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.Max {
		t.Errorf("percentiles out of order: p50=%v p90=%v p99=%v max=%v", s.P50, s.P90, s.P99, s.Max)
	}
	if s.Status[http.StatusOK] != s.Requests {
		t.Errorf("status map %v does not account for %d requests", s.Status, s.Requests)
	}
}

// TestLoadRamp runs one step per listed concurrency.
func TestLoadRamp(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	res, err := Load(context.Background(), LoadConfig{
		URL:      ts.URL,
		Duration: 50 * time.Millisecond,
		Ramp:     []int{1, 3},
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("steps %d, want 2", len(res.Steps))
	}
	if res.Steps[0].Concurrency != 1 || res.Steps[1].Concurrency != 3 {
		t.Errorf("step concurrencies %d,%d", res.Steps[0].Concurrency, res.Steps[1].Concurrency)
	}
}

// TestLoadOpenLoop checks rate-paced dispatch completes and labels the
// step with the target rate.
func TestLoadOpenLoop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	res, err := Load(context.Background(), LoadConfig{
		URL:      ts.URL,
		Duration: 300 * time.Millisecond,
		Rate:     200,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Steps[0]
	if s.RateRPS != 200 {
		t.Errorf("rate label %g", s.RateRPS)
	}
	if s.Requests == 0 {
		t.Error("open loop completed no requests")
	}
}

// TestLoadVaryField proves -vary defeats caching: each request body
// carries a distinct value for the named field.
func TestLoadVaryField(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int64]bool)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			App  string `json:"app"`
			N    int    `json:"n"`
			Seed int64  `json:"seed"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		seen[body.Seed] = true
		mu.Unlock()
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	res, err := Load(context.Background(), LoadConfig{
		URL:         ts.URL,
		Body:        []byte(`{"app":"FFT","n":2}`),
		VaryField:   "seed",
		Duration:    100 * time.Millisecond,
		Concurrency: 2,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("vary run not OK: %+v", res.Steps[0])
	}
	mu.Lock()
	distinct := len(seen)
	mu.Unlock()
	if distinct < 2 {
		t.Errorf("vary field produced %d distinct values, want >= 2", distinct)
	}
	if seen[0] {
		t.Error("a request went out with the unvaried zero seed")
	}
}

// TestStepOK pins the smoke gate: 2xx and 429 pass, anything else fails.
func TestStepOK(t *testing.T) {
	ok := StepResult{Status: map[int]int64{200: 5, 429: 2}}
	if !ok.OK() {
		t.Error("2xx+429 should pass")
	}
	bad := StepResult{Status: map[int]int64{200: 5, 500: 1}}
	if bad.OK() {
		t.Error("500 should fail")
	}
	errs := StepResult{Errors: 1, Status: map[int]int64{200: 5}}
	if errs.OK() {
		t.Error("transport errors should fail")
	}
}

// TestLoadConfigValidation pins the config error paths.
func TestLoadConfigValidation(t *testing.T) {
	bad := []LoadConfig{
		{},                                  // no URL
		{URL: "x", Rate: -1},                // negative rate
		{URL: "x", Ramp: []int{0}},          // non-positive ramp step
		{URL: "x", Rate: 5, Ramp: []int{1}}, // exclusive modes
		{URL: "x", Body: []byte(`{`), VaryField: "seed"}, // unparseable vary body
	}
	for i, cfg := range bad {
		if _, err := Load(context.Background(), cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var ce *check.Error
		if _, err := Load(context.Background(), LoadConfig{URL: "x", Rate: rate}); !errors.As(err, &ce) || ce.Field != "Rate" {
			t.Errorf("Rate %g: Load gave %v, want a *check.Error on Rate", rate, err)
		}
	}
}

// TestClosedLoopHonorsRetryAfter: a stub that always answers 429 with
// Retry-After: 1 puts every worker to sleep after its first request, so
// a 300ms step completes roughly one request per worker — not the
// thousands an ill-behaved client would hammer through — and records
// the backoffs and the 429 status class.
func TestClosedLoopHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	res, err := Load(context.Background(), LoadConfig{
		URL:         ts.URL,
		Body:        []byte(`{}`),
		Duration:    300 * time.Millisecond,
		Concurrency: 4,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Steps[0]
	if s.Backoffs < 4 {
		t.Errorf("backoffs = %d, want >= 4 (one per worker)", s.Backoffs)
	}
	// Each worker fires once, sleeps 1s, and the 300ms step ends first;
	// allow slack for a worker waking near the deadline.
	if n := hits.Load(); n > 8 {
		t.Errorf("%d requests against a backpressuring server, want ~4 (workers ignored Retry-After)", n)
	}
	if s.Class429 != s.Requests || s.Class2xx != 0 {
		t.Errorf("class counts 2xx=%d 429=%d over %d requests", s.Class2xx, s.Class429, s.Requests)
	}
	if !s.OK() {
		t.Error("pure-429 step must pass the smoke gate (backpressure is correct behavior)")
	}
}

// TestStatusClassCounts: the Class* summary partitions the status map —
// every status lands in exactly one class, with ClassOther catching
// 1xx, 3xx, and 4xx other than 429/499, so the classes always sum to
// Requests.
func TestStatusClassCounts(t *testing.T) {
	cases := []struct {
		name   string
		status map[int]int
		want   StepResult // class fields only
	}{
		{
			name:   "full spread",
			status: map[int]int{200: 3, 204: 1, 429: 2, 499: 1, 500: 2, 404: 1},
			want:   StepResult{Class2xx: 4, Class429: 2, Class499: 1, Class5xx: 2, ClassOther: 1},
		},
		{
			name:   "other statuses only",
			status: map[int]int{301: 2, 304: 1, 400: 3, 404: 2, 101: 1},
			want:   StepResult{ClassOther: 9},
		},
		{
			name:   "edge codes",
			status: map[int]int{199: 1, 200: 1, 299: 1, 300: 1, 428: 1, 430: 1, 498: 1, 503: 1},
			want:   StepResult{Class2xx: 2, Class499: 0, Class5xx: 1, ClassOther: 5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col := newCollector()
			var total int64
			for code, n := range tc.status {
				for i := 0; i < n; i++ {
					col.record(time.Millisecond, code, nil, "", "")
					total++
				}
			}
			s := col.result(time.Second)
			if s.Class2xx != tc.want.Class2xx || s.Class429 != tc.want.Class429 ||
				s.Class499 != tc.want.Class499 || s.Class5xx != tc.want.Class5xx ||
				s.ClassOther != tc.want.ClassOther {
				t.Errorf("classes 2xx=%d 429=%d 499=%d 5xx=%d other=%d, want %d/%d/%d/%d/%d",
					s.Class2xx, s.Class429, s.Class499, s.Class5xx, s.ClassOther,
					tc.want.Class2xx, tc.want.Class429, tc.want.Class499, tc.want.Class5xx, tc.want.ClassOther)
			}
			if sum := s.Class2xx + s.Class429 + s.Class499 + s.Class5xx + s.ClassOther; sum != total {
				t.Errorf("classes sum to %d over %d requests (a status fell through)", sum, total)
			}
		})
	}
}

// TestClosedLoopDefault429Backoff: a 429 with no Retry-After header
// still puts the worker to sleep for the default backoff instead of
// letting it spin at full speed against the admission queue.
func TestClosedLoopDefault429Backoff(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusTooManyRequests) // no Retry-After
	}))
	defer ts.Close()

	res, err := Load(context.Background(), LoadConfig{
		URL:         ts.URL,
		Body:        []byte(`{}`),
		Duration:    300 * time.Millisecond,
		Concurrency: 2,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Steps[0]
	if s.Backoffs < 2 {
		t.Errorf("backoffs = %d, want >= 2 (default backoff must count)", s.Backoffs)
	}
	// 2 workers over 300ms with a 50ms default backoff can fire at most
	// ~7 requests each; a spinning worker would manage thousands.
	if n := hits.Load(); n > 20 {
		t.Errorf("%d requests against header-less 429s, want <= 20 (workers spun without backoff)", n)
	}
}

// TestOpenLoopDrainFreeDuration: a server that stalls responses past
// the step deadline must not inflate the reported Duration — the
// drain is reported separately, and ThroughputRPS divides by the
// dispatch window only.
func TestOpenLoopDrainFreeDuration(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	duration := 200 * time.Millisecond
	done := make(chan *LoadResult, 1)
	go func() {
		res, err := Load(context.Background(), LoadConfig{
			URL:      ts.URL,
			Duration: duration,
			Rate:     50,
			Timeout:  5 * time.Second,
			Client:   ts.Client(),
		})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	// Hold every response well past the step deadline, then release.
	time.Sleep(duration + 300*time.Millisecond)
	close(release)
	res := <-done
	s := res.Steps[0]
	if s.Duration > duration+100*time.Millisecond {
		t.Errorf("Duration %v includes drain (dispatch window was %v)", s.Duration, duration)
	}
	if s.Dispatched == 0 {
		t.Fatal("nothing dispatched")
	}
}

// TestOpenLoopAchievedRate: on an absolute dispatch schedule the
// achieved rate tracks the target within 10% even at a sub-millisecond
// interval, where a ticker-based clock coalesces ticks and silently
// undershoots. A loaded host (race detector, single CPU) can genuinely
// lack the capacity for a 500µs interval, so the target is capped at
// half the host's measured dispatch ceiling — a ticker regression
// undershoots any feasible target, not just a fast host's.
func TestOpenLoopAchievedRate(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	load := func(rate float64) StepResult {
		t.Helper()
		res, err := Load(context.Background(), LoadConfig{
			URL:      ts.URL,
			Duration: 500 * time.Millisecond,
			Rate:     rate,
			Client:   ts.Client(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Steps[0]
	}

	// The ceiling fluctuates with host load, so each attempt re-probes
	// it and a pass on any attempt suffices; a ticker regression
	// undershoots every feasible target on every attempt.
	var s StepResult
	var target float64
	for attempt := 0; attempt < 3; attempt++ {
		// An unsatisfiable rate measures the host's dispatch ceiling.
		ceiling := load(50000).AchievedRPS
		target = 2000.0 // 500µs interval — ticker territory
		if quarter := ceiling / 4; quarter < target {
			target = quarter
		}
		if target < 100 {
			t.Skipf("host dispatch ceiling %.0f rps too low to measure scheduling accuracy", ceiling)
		}
		s = load(target)
		if s.Dispatched == 0 {
			t.Fatal("dispatched count missing")
		}
		if s.AchievedRPS >= 0.9*target && s.AchievedRPS <= 1.1*target {
			return
		}
	}
	t.Errorf("achieved %.0f rps vs target %.0f, want within 10%% on at least one of 3 attempts", s.AchievedRPS, target)
}

// TestPercentileNearestRank pins the nearest-rank edges: single sample,
// two samples, q=0 floor, q=1 ceiling.
func TestPercentileNearestRank(t *testing.T) {
	one := []time.Duration{7}
	if got := percentile(one, 0.5); got != 7 {
		t.Errorf("single sample p50 = %v, want 7", got)
	}
	if got := percentile(one, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	two := []time.Duration{1, 9}
	if got := percentile(two, 0.50); got != 1 {
		t.Errorf("two samples p50 = %v, want 1 (nearest rank)", got)
	}
	if got := percentile(two, 0.99); got != 9 {
		t.Errorf("two samples p99 = %v, want 9", got)
	}
	ten := make([]time.Duration, 10)
	for i := range ten {
		ten[i] = time.Duration(i + 1)
	}
	if got := percentile(ten, 0); got != 1 {
		t.Errorf("q=0 = %v, want first sample", got)
	}
	if got := percentile(ten, 1); got != 10 {
		t.Errorf("q=1 = %v, want last sample", got)
	}
	if got := percentile(ten, 0.90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
}

package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cmppower/internal/check"
	"cmppower/internal/faults"
	"cmppower/internal/identity"
	"cmppower/internal/server"
	"cmppower/internal/traffic"
)

// post fires one JSON POST and returns status, body (status 0 on
// transport failure; Errorf, not Fatal, so it is goroutine-safe).
func post(t *testing.T, url, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST %s: %v", path, err)
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
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fastFleet is a spawn-mode config tuned for tests: small worker pools,
// quick health ticks, and hedging effectively disabled unless a test
// opts in.
func fastFleet(shards int) Config {
	return Config{
		Shards:         shards,
		Spawn:          SpawnInProcess(server.Config{Workers: 2, QueueDepth: 8}),
		HealthInterval: 10 * time.Millisecond,
		EjectAfter:     2,
		ReadmitAfter:   2,
		HedgeMin:       5 * time.Second, // no accidental hedges in timing-agnostic tests
		HedgeMax:       5 * time.Second,
	}
}

func mustRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Now()
	cooldown := time.Second
	b := breaker{threshold: 3}

	// Closed admits; failures below threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.eligible(now, cooldown) || !b.acquire() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		if b.record(false, now) {
			t.Fatalf("tripped before threshold at failure %d", i)
		}
	}
	// Third consecutive failure trips it open.
	if !b.record(false, now) {
		t.Fatal("threshold failure did not trip the breaker")
	}
	if b.state != breakerOpen {
		t.Fatalf("state %v, want open", b.state)
	}
	if b.eligible(now, cooldown) {
		t.Fatal("open breaker eligible before cooldown")
	}

	// After the cooldown: half-open, exactly one probe at a time, and
	// eligibility alone must not consume the probe slot.
	later := now.Add(2 * cooldown)
	if !b.eligible(later, cooldown) || !b.eligible(later, cooldown) {
		t.Fatal("half-open breaker not eligible after cooldown")
	}
	if b.state != breakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.state)
	}
	if !b.acquire() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.acquire() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// A released probe (cancelled attempt) frees the slot with no verdict.
	b.release()
	if !b.acquire() {
		t.Fatal("released probe slot not reusable")
	}
	// Probe failure: straight back to open with a fresh cooldown.
	if !b.record(false, later) {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if b.eligible(later.Add(cooldown/2), cooldown) {
		t.Fatal("re-opened breaker eligible before its fresh cooldown")
	}
	// Probe success closes.
	evenLater := later.Add(2 * cooldown)
	if !b.eligible(evenLater, cooldown) || !b.acquire() {
		t.Fatal("breaker refused probe after second cooldown")
	}
	b.record(true, evenLater)
	if b.state != breakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.state)
	}
}

func TestRetryBudget(t *testing.T) {
	rb := newRetryBudget(0.5, 2)
	// Starts full: two withdrawals succeed, the third is denied.
	if !rb.withdraw() || !rb.withdraw() {
		t.Fatal("full budget denied a withdrawal")
	}
	if rb.withdraw() {
		t.Fatal("empty budget granted a withdrawal")
	}
	// Two deposits at ratio 0.5 buy exactly one more attempt.
	rb.deposit()
	rb.deposit()
	if !rb.withdraw() {
		t.Fatal("refilled budget denied a withdrawal")
	}
	if rb.withdraw() {
		t.Fatal("budget granted more than deposited")
	}
	// The bucket caps: unlimited deposits never exceed capacity.
	for i := 0; i < 100; i++ {
		rb.deposit()
	}
	granted := 0
	for rb.withdraw() {
		granted++
	}
	if granted != 2 {
		t.Fatalf("capacity-2 bucket granted %d withdrawals", granted)
	}
}

func TestLatTrackerQuantile(t *testing.T) {
	tr := newLatTracker(8, 42*time.Millisecond)
	if got := tr.quantile(0.95); got != 42*time.Millisecond {
		t.Fatalf("empty tracker quantile = %v, want the prior", got)
	}
	for i := 1; i <= 8; i++ {
		tr.observe(time.Duration(i) * time.Millisecond)
	}
	if got := tr.quantile(0.5); got != 4*time.Millisecond {
		t.Fatalf("median of 1..8ms = %v, want 4ms", got)
	}
	if got := tr.quantile(1.0); got != 8*time.Millisecond {
		t.Fatalf("max of 1..8ms = %v, want 8ms", got)
	}
	// The ring wraps: four more observations displace the oldest four.
	for i := 0; i < 4; i++ {
		tr.observe(100 * time.Millisecond)
	}
	if got := tr.quantile(1.0); got != 100*time.Millisecond {
		t.Fatalf("post-wrap max = %v, want 100ms", got)
	}
}

func TestConfigValidation(t *testing.T) {
	spawn := SpawnInProcess(server.Config{Workers: 1})
	chaosKill, err := faults.ParseChaosSpec("kill-period=5", 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"backends and shards", Config{Backends: []string{"http://x"}, Shards: 2, Spawn: spawn}},
		{"spawn mode without Spawn", Config{Shards: 2}},
		{"autoscale in attach mode", Config{Backends: []string{"http://x"}, AutoScale: true}},
		{"chaos kills in attach mode", Config{Backends: []string{"http://x"}, Chaos: chaosKill}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
		}
	}
	for _, q := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		var ce *check.Error
		if _, err := New(Config{Backends: []string{"http://x"}, ScaleUpQueue: q}); !errors.As(err, &ce) || ce.Field != "ScaleUpQueue" {
			t.Errorf("ScaleUpQueue %g: New gave %v, want a *check.Error on ScaleUpQueue", q, err)
		}
	}
}

// TestByteIdenticalAcrossShardCounts is the tentpole contract: the fleet
// is invisible. For every shard count the router's bytes equal a direct
// single server's bytes, for every endpoint.
func TestByteIdenticalAcrossShardCounts(t *testing.T) {
	direct := httptest.NewServer(server.New(server.Config{Workers: 2}).Handler())
	defer direct.Close()

	reqs := []struct{ path, body string }{
		{"/v1/run", `{"app":"FFT","n":2,"scale":0.05,"seed":1}`},
		{"/v1/run", `{"app":"LU","n":4,"scale":0.05,"seed":3}`},
		{"/v1/sweep", `{"scenario":"I","apps":["Radix"],"core_counts":[1,2],"scale":0.05}`},
		{"/v1/explore", `{"apps":["Radix"],"scale":0.05}`},
	}
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		status, body := post(t, direct.URL, r.path, r.body)
		if status != http.StatusOK {
			t.Fatalf("direct %s: status %d body %s", r.path, status, body)
		}
		want[i] = body
	}

	for _, shards := range []int{1, 2, 4} {
		rt := mustRouter(t, fastFleet(shards))
		ts := httptest.NewServer(rt.Handler())
		for i, r := range reqs {
			status, body := post(t, ts.URL, r.path, r.body)
			if status != http.StatusOK {
				t.Fatalf("%d shards %s: status %d body %s", shards, r.path, status, body)
			}
			if !bytes.Equal(body, want[i]) {
				t.Errorf("%d shards %s: body differs from direct server\n got %s\nwant %s",
					shards, r.path, body, want[i])
			}
		}
		ts.Close()
	}
}

// TestMemoAffinity: identical requests always land on the same shard, so
// its caches stay hot and every other shard stays cold for that key.
func TestMemoAffinity(t *testing.T) {
	rt := mustRouter(t, fastFleet(4))
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	body := `{"app":"FFT","n":2,"scale":0.05,"seed":9}`
	for i := 0; i < 6; i++ {
		if status, b := post(t, ts.URL, "/v1/run", body); status != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, status, b)
		}
	}
	routed := 0
	for slot := 0; slot < 4; slot++ {
		name := fmt.Sprintf("router_routes_total{shard=%q}", fmt.Sprint(slot))
		if rt.reg.Counter(name).Value() > 0 {
			routed++
		}
	}
	if routed != 1 {
		t.Errorf("identical requests touched %d shards, want exactly 1 (memo affinity)", routed)
	}
}

// TestBadRequestStopsAtRouter: validation failures are a 400 at the
// front door and never reach a shard.
func TestBadRequestStopsAtRouter(t *testing.T) {
	rt := mustRouter(t, fastFleet(2))
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	for _, body := range []string{`{"app":"Nope","n":2}`, `{"app":`, `{"app":"FFT","n":2,"bogus":1}`} {
		if status, _ := post(t, ts.URL, "/v1/run", body); status != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, status)
		}
	}
	for slot := 0; slot < 2; slot++ {
		name := fmt.Sprintf("router_routes_total{shard=%q}", fmt.Sprint(slot))
		if n := rt.reg.Counter(name).Value(); n != 0 {
			t.Errorf("invalid requests were routed to shard %d (%d times)", slot, n)
		}
	}
}

// primarySlot computes which of n slots rendezvous hashing picks for a
// normalized run request — tests use it to aim chaos at the right shard.
func primarySlot(t *testing.T, body string, n int) int {
	t.Helper()
	key, err := normalizeKey("/v1/run", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	h := identity.Hash(key)
	best, bestScore := 0, uint64(0)
	for slot := 0; slot < n; slot++ {
		if s := identity.Mix(h, uint64(slot)); s > bestScore {
			best, bestScore = slot, s
		}
	}
	return best
}

// TestHedgeOnStalledShard: the primary shard for a key is stalled by
// chaos; the hedge fires after the latency quantile and the next ring
// shard answers identical bytes, far below the stall duration.
func TestHedgeOnStalledShard(t *testing.T) {
	body := `{"app":"FFT","n":2,"scale":0.05,"seed":5}`
	primary := primarySlot(t, body, 2)

	chaos, err := faults.ParseChaosSpec(
		fmt.Sprintf("stall=1,stall-ms=30000,stall-slot=%d", primary), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastFleet(2)
	cfg.Chaos = chaos
	cfg.HedgeMin = 20 * time.Millisecond
	cfg.HedgeMax = 50 * time.Millisecond
	rt := mustRouter(t, cfg)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	start := time.Now()
	status, hedged := post(t, ts.URL, "/v1/run", body)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("status %d body %s", status, hedged)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("hedged request took %v; the 30s stall leaked into the tail", elapsed)
	}
	if n := rt.reg.Counter("router_hedges_total").Value(); n < 1 {
		t.Errorf("router_hedges_total = %d, want >= 1", n)
	}
	if n := rt.reg.Counter("router_hedge_wins_total").Value(); n < 1 {
		t.Errorf("router_hedge_wins_total = %d, want >= 1", n)
	}

	// The hedge winner's bytes are the same bytes the direct library
	// path serves — hedging cannot change the answer.
	direct := httptest.NewServer(server.New(server.Config{Workers: 2}).Handler())
	defer direct.Close()
	if _, want := post(t, direct.URL, "/v1/run", body); !bytes.Equal(hedged, want) {
		t.Errorf("hedged body differs from direct server:\n got %s\nwant %s", hedged, want)
	}
}

// TestMasksKilledShard: a shard crashes without warning; calls to it
// fail as transport errors, requests keyed to it still succeed with the
// same bytes via retries onto the next-ranked shard, and the health
// checker ejects it.
func TestMasksKilledShard(t *testing.T) {
	rt := mustRouter(t, fastFleet(2))
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	body := `{"app":"FFT","n":2,"scale":0.05,"seed":11}`
	victim := primarySlot(t, body, 2)

	// Warm the key on its home shard, then crash that shard abruptly.
	status, want := post(t, ts.URL, "/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("warmup failed with %d", status)
	}
	rt.fleetMu.Lock()
	proc := rt.slots[victim].proc
	rt.fleetMu.Unlock()
	proc.Kill()
	if _, err := roundTrip(context.Background(), proc.(*inprocShard), "/v1/run", body); !errors.Is(err, errShardStopped) {
		t.Fatalf("call to a killed shard: err %v, want %v", err, errShardStopped)
	}

	// Every request keyed to the dead shard is masked by a retry.
	for i := 0; i < 5; i++ {
		status, b := post(t, ts.URL, "/v1/run", body)
		if status != http.StatusOK {
			t.Fatalf("request %d after kill: status %d body %s", i, status, b)
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("request %d after kill: body differs from the warmup answer", i)
		}
	}
	if n := rt.reg.Counter("router_retries_total").Value(); n < 1 {
		t.Errorf("router_retries_total = %d, want >= 1", n)
	}

	// The health checker notices and ejects the corpse.
	waitFor(t, "victim ejection", func() bool {
		rt.fleetMu.Lock()
		defer rt.fleetMu.Unlock()
		return !rt.slots[victim].healthy
	})
	if n := rt.reg.Counter(fmt.Sprintf("router_ejects_total{shard=%q}", fmt.Sprint(victim))).Value(); n < 1 {
		t.Errorf("eject counter for shard %d = %d, want >= 1", victim, n)
	}
}

// TestAttachMode: the router can front externally managed backends.
func TestAttachMode(t *testing.T) {
	b0 := httptest.NewServer(server.New(server.Config{Workers: 2}).Handler())
	defer b0.Close()
	b1 := httptest.NewServer(server.New(server.Config{Workers: 2}).Handler())
	defer b1.Close()

	rt := mustRouter(t, Config{
		Backends:       []string{b0.URL, b1.URL},
		HealthInterval: 10 * time.Millisecond,
		HedgeMin:       5 * time.Second,
		HedgeMax:       5 * time.Second,
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	status, _ := post(t, ts.URL, "/v1/run", `{"app":"FFT","n":2,"scale":0.05,"seed":1}`)
	if status != http.StatusOK {
		t.Fatalf("attach-mode request failed with %d", status)
	}
}

// TestPerClassMetricsForwarded: a request tagged with the traffic class
// header is counted per class at the router AND the tag is forwarded to
// the winning shard, so the shard's per-class families line up with the
// router's.
func TestPerClassMetricsForwarded(t *testing.T) {
	backend := server.New(server.Config{Workers: 2})
	b0 := httptest.NewServer(backend.Handler())
	defer b0.Close()

	rt := mustRouter(t, Config{
		Backends:       []string{b0.URL},
		HealthInterval: 10 * time.Millisecond,
		HedgeMin:       5 * time.Second,
		HedgeMax:       5 * time.Second,
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run",
		strings.NewReader(`{"app":"FFT","n":2,"scale":0.05,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(traffic.HeaderClass, "batch")
	req.Header.Set(traffic.HeaderClient, "nightly")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tagged request failed with %d", resp.StatusCode)
	}

	fetch := func(url string) string {
		r, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return string(b)
	}
	routerText := fetch(ts.URL)
	for _, want := range []string{
		`router_class_requests_total{class="batch"} 1`,
		`router_class_429_total{class="batch"} 0`,
		`router_class_request_seconds_count{class="batch"} 1`,
	} {
		if !strings.Contains(routerText, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
	shardText := fetch(b0.URL)
	if !strings.Contains(shardText, `server_class_requests_total{class="batch"} 1`) {
		t.Errorf("shard /metrics missing the forwarded class count:\n%s", shardText)
	}
}

// TestUnroutableFleet: with every backend unreachable the router fails
// fast (502 on attempts, then 503 + not-ready once health ejects).
func TestUnroutableFleet(t *testing.T) {
	// A listener that is closed immediately: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	rt := mustRouter(t, Config{
		Backends:       []string{deadURL},
		HealthInterval: 10 * time.Millisecond,
		EjectAfter:     1,
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	waitFor(t, "dead backend ejection", func() bool {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	status, _ := post(t, ts.URL, "/v1/run", `{"app":"FFT","n":2}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("unroutable fleet answered %d, want 503", status)
	}
	if n := rt.reg.Counter("router_unroutable_total").Value(); n < 1 {
		t.Errorf("router_unroutable_total = %d, want >= 1", n)
	}
}

// fakeProc backs the autoscaler test with a shard whose /metrics the
// test scripts directly.
type fakeProc struct {
	ts *httptest.Server
}

func (p *fakeProc) URL() string { return p.ts.URL }
func (p *fakeProc) Kill()       { p.ts.Close() }
func (p *fakeProc) Shutdown(context.Context) error {
	p.ts.Close()
	return nil
}

// TestAutoscalerGrowsAndShrinks drives the control loop with scripted
// queue-depth readings: pressure grows the fleet to ScaleMax, sustained
// idleness drains it back to ScaleMin.
func TestAutoscalerGrowsAndShrinks(t *testing.T) {
	var queueDepth atomic.Int64
	spawn := func(slot int) (Proc, error) {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ready")
		})
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintf(w, "server_queue_depth %d\nserver_admission_rejected_total 0\n", queueDepth.Load())
		})
		return &fakeProc{ts: httptest.NewServer(mux)}, nil
	}

	rt := mustRouter(t, Config{
		Shards:             1,
		Spawn:              spawn,
		AutoScale:          true,
		ScaleInterval:      15 * time.Millisecond,
		ScaleMin:           1,
		ScaleMax:           3,
		ScaleUpQueue:       1,
		ScaleDownIdleTicks: 2,
		HealthInterval:     10 * time.Millisecond,
	})
	liveCount := func() int {
		rt.fleetMu.Lock()
		defer rt.fleetMu.Unlock()
		n := 0
		for _, s := range rt.slots {
			if s != nil && !s.dead {
				n++
			}
		}
		return n
	}

	queueDepth.Store(5)
	waitFor(t, "scale-up to ScaleMax", func() bool { return liveCount() == 3 })
	if n := rt.reg.Counter("router_scale_up_total").Value(); n < 2 {
		t.Errorf("router_scale_up_total = %d, want >= 2", n)
	}

	queueDepth.Store(0)
	waitFor(t, "scale-down to ScaleMin", func() bool { return liveCount() == 1 })
	if n := rt.reg.Counter("router_scale_down_total").Value(); n < 2 {
		t.Errorf("router_scale_down_total = %d, want >= 2", n)
	}
}

// TestShutdownOrderingUnderLoad is the bugfix-sweep regression: Shutdown
// must drain the client-facing HTTP layer first, then stop the health /
// scaler / chaos loops, and only then shut the backends down — so every
// accepted request completes against live shards and no loop races a
// dying backend. Run under -race (make check does) this doubles as the
// ordering data-race check.
func TestShutdownOrderingUnderLoad(t *testing.T) {
	chaos, err := faults.ParseChaosSpec("kill-period=0.08,kill-down=0.05,seed=3", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastFleet(2)
	cfg.Chaos = chaos
	cfg.AutoScale = true
	cfg.ScaleInterval = 20 * time.Millisecond
	cfg.ScaleMin = 1
	cfg.ScaleMax = 3
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- rt.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	// Distinct bodies so nothing coalesces: every request really runs.
	var wg sync.WaitGroup
	var completed atomic.Int64
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"app":"FFT","n":2,"scale":0.05,"seed":%d}`, 100+i)
			status, b := post(t, url, "/v1/run", body)
			if status != http.StatusOK {
				t.Errorf("in-flight request %d dropped during shutdown: status %d body %s", i, status, b)
			}
			completed.Add(1)
		}(i)
	}

	// Let the requests get accepted, then shut down underneath them.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	wg.Wait()
	if n := completed.Load(); n != 6 {
		t.Errorf("%d of 6 accepted requests completed", n)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v", err)
	}
	// After Shutdown every loop has been joined: a second Shutdown is a
	// quiet no-op, not a double-close.
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Errorf("repeated Shutdown: %v", err)
	}
}

// TestFleetEndpoint: /fleet reports one entry per slot with live state.
func TestFleetEndpoint(t *testing.T) {
	rt := mustRouter(t, fastFleet(2))
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{`"slot":0`, `"slot":1`, `"state":"active"`, `"breaker":"closed"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("/fleet missing %s in %s", want, b)
		}
	}
}

package router

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cmppower/internal/identity"
	"cmppower/internal/server"
)

// wrapSpawn is fastFleet's in-process spawn with the shard's in-process
// handler replaced by wrap(slot, handler). The shard's loopback listener
// keeps serving the plain handler, so a test can tell the two paths
// apart.
func wrapSpawn(wrap func(slot int, h http.Handler) http.Handler) SpawnFunc {
	spawn := SpawnInProcess(server.Config{Workers: 2, QueueDepth: 8})
	return func(slot int) (Proc, error) {
		p, err := spawn(slot)
		if err != nil {
			return nil, err
		}
		ip := p.(*inprocShard)
		ip.h = wrap(slot, ip.h)
		return ip, nil
	}
}

// onCompute runs fn instead of h for the compute endpoints, leaving
// /readyz and /metrics alone so the health checker stays quiet.
func onCompute(h http.Handler, fn http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			fn(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// ownerProc is the proc the router ranks first for one request body.
func ownerProc(t *testing.T, rt *Router, path, body string) Proc {
	t.Helper()
	key, err := normalizeKey(path, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	ranked := rt.pick(identity.Hash(key))
	if len(ranked) == 0 {
		t.Fatal("no routable shard")
	}
	return ranked[0].proc
}

// spawnOne boots a single in-process shard outside any router.
func spawnOne(t *testing.T, wrap func(h http.Handler) http.Handler) *inprocShard {
	t.Helper()
	p, err := wrapSpawn(func(_ int, h http.Handler) http.Handler { return wrap(h) })(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Kill)
	return p.(*inprocShard)
}

// roundTrip is one in-process POST straight to a shard.
func roundTrip(ctx context.Context, p *inprocShard, path, body string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.URL()+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	return p.RoundTrip(req)
}

// TestInprocBytesMatchLoopback: a routed answer, which reaches its shard
// in memory, is byte-identical to the same shard's answer over its
// loopback listener, for every endpoint and for surrogate mode; and the
// routed requests really took the in-process path, shaped as the
// listener would hand them to the handler.
func TestInprocBytesMatchLoopback(t *testing.T) {
	var inproc atomic.Int64
	cfg := fastFleet(2)
	cfg.Spawn = wrapSpawn(func(_ int, h http.Handler) http.Handler {
		return onCompute(h, func(w http.ResponseWriter, r *http.Request) {
			inproc.Add(1)
			if r.RequestURI != r.URL.Path || r.Host == "" || r.URL.Host != "" {
				t.Errorf("in-process request: RequestURI %q, Host %q, URL %q; want a server-side request",
					r.RequestURI, r.Host, r.URL)
			}
			h.ServeHTTP(w, r)
		})
	})
	rt := mustRouter(t, cfg)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	reqs := []struct{ path, body string }{
		{"/v1/run", `{"app":"FFT","n":2,"scale":0.05,"seed":1}`},
		{"/v1/run", `{"app":"LU","n":4,"scale":0.05,"seed":3}`},
		{"/v1/run", `{"app":"FFT","n":4,"scale":0.05,"seed":1,"mode":"surrogate"}`},
		{"/v1/sweep", `{"scenario":"I","apps":["Radix"],"core_counts":[1,2],"scale":0.05}`},
		{"/v1/explore", `{"apps":["Radix"],"scale":0.05}`},
	}
	for _, r := range reqs {
		before := inproc.Load()
		status, routed := post(t, ts.URL, r.path, r.body)
		if status != http.StatusOK {
			t.Fatalf("routed %s %s: status %d body %s", r.path, r.body, status, routed)
		}
		if inproc.Load() != before+1 {
			t.Errorf("routed %s %s did not take the in-process path", r.path, r.body)
		}
		owner := ownerProc(t, rt, r.path, r.body)
		status, direct := post(t, owner.URL(), r.path, r.body)
		if status != http.StatusOK {
			t.Fatalf("direct %s %s: status %d body %s", r.path, r.body, status, direct)
		}
		if !bytes.Equal(routed, direct) {
			t.Errorf("%s %s: routed body differs from the shard's loopback answer\n got %s\nwant %s",
				r.path, r.body, routed, direct)
		}
	}
	if n := inproc.Load(); n != int64(len(reqs)) {
		t.Errorf("in-process handler ran %d times, want %d (direct calls must use the listener)", n, len(reqs))
	}
}

// TestInprocKillFailsInflightCall: a call whose handler is still running
// when the shard is killed fails at once, and the response the handler
// produces afterwards is dropped.
func TestInprocKillFailsInflightCall(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	p := spawnOne(t, func(h http.Handler) http.Handler {
		return onCompute(h, func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
			h.ServeHTTP(w, r)
		})
	})
	errc := make(chan error, 1)
	go func() {
		_, err := roundTrip(context.Background(), p, "/v1/run", `{"app":"FFT","n":2,"scale":0.05}`)
		errc <- err
	}()
	<-entered
	p.Kill()
	select {
	case err := <-errc:
		if !errors.Is(err, errShardStopped) {
			t.Errorf("in-flight call across a kill: err %v, want %v", err, errShardStopped)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call outlived the kill")
	}
	close(release)
}

// TestInprocShutdownWaitsForInflight: Shutdown refuses new calls at once
// but waits for the in-flight one, which completes normally; a Shutdown
// whose context expires first reports it.
func TestInprocShutdownWaitsForInflight(t *testing.T) {
	// blockedShard returns a shard whose /v1/run handler holds until
	// release closes, plus the in-flight call's eventual status.
	blockedShard := func(release chan struct{}) (*inprocShard, chan int) {
		entered := make(chan struct{})
		p := spawnOne(t, func(h http.Handler) http.Handler {
			return onCompute(h, func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/run" {
					close(entered)
					<-release
				}
				h.ServeHTTP(w, r)
			})
		})
		status := make(chan int, 1)
		go func() {
			resp, err := roundTrip(context.Background(), p, "/v1/run", `{"app":"FFT","n":2,"scale":0.05}`)
			if err != nil {
				status <- 0
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		<-entered
		return p, status
	}

	release := make(chan struct{})
	p, status := blockedShard(release)
	done := make(chan error, 1)
	go func() { done <- p.Shutdown(context.Background()) }()
	waitFor(t, "shutdown to refuse new calls", func() bool {
		_, err := roundTrip(context.Background(), p, "/v1/sweep", `{"scenario":"I","apps":["FFT"]}`)
		return errors.Is(err, errShardStopped)
	})
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a call still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := <-status; got != http.StatusOK {
		t.Errorf("in-flight call across Shutdown: status %d, want 200", got)
	}
	if err := <-done; err != nil {
		t.Errorf("Shutdown: %v", err)
	}

	release = make(chan struct{})
	defer close(release)
	p, _ = blockedShard(release)
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown past its bound with a call in flight: err %v, want deadline exceeded", err)
	}
}

// TestInprocHandlerPanic: a panicking shard handler is an attempt
// failure — retried onto a healthy shard, or a 502 when none is left —
// and the router keeps serving.
func TestInprocHandlerPanic(t *testing.T) {
	body := `{"app":"FFT","n":2,"scale":0.05,"seed":31}`
	broken := primarySlot(t, body, 2)
	var panics atomic.Int64
	cfg := fastFleet(2)
	cfg.Spawn = wrapSpawn(func(slot int, h http.Handler) http.Handler {
		if slot != broken {
			return h
		}
		return onCompute(h, func(http.ResponseWriter, *http.Request) {
			panics.Add(1)
			panic("shard handler bug")
		})
	})
	rt := mustRouter(t, cfg)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if status, b := post(t, ts.URL, "/v1/run", body); status != http.StatusOK {
			t.Fatalf("request %d keyed to the panicking shard: status %d body %s", i, status, b)
		}
	}
	if panics.Load() < 1 {
		t.Fatal("the panicking handler was never reached")
	}
	if n := rt.reg.Counter("router_backend_errors_total").Value(); n < 1 {
		t.Errorf("router_backend_errors_total = %d, want >= 1", n)
	}

	// With only the broken shard left the panic surfaces as a 502.
	rt.fleetMu.Lock()
	rt.slots[1-broken].draining = true
	rt.fleetMu.Unlock()
	if status, b := post(t, ts.URL, "/v1/run", body); status != http.StatusBadGateway {
		t.Errorf("panicking sole shard: status %d body %s, want 502", status, b)
	}
	if status, _ := post(t, ts.URL, "/v1/run", `{"app":"Nope","n":2}`); status != http.StatusBadRequest {
		t.Errorf("router stopped answering after a shard panic: status %d", status)
	}
}

// TestInprocHedgeLoserCancelled: when the hedge wins, the stalled
// primary's handler sees its request context cancelled.
func TestInprocHedgeLoserCancelled(t *testing.T) {
	body := `{"app":"FFT","n":2,"scale":0.05,"seed":41}`
	primary := primarySlot(t, body, 2)
	loserCancelled := make(chan struct{})
	cfg := fastFleet(2)
	cfg.HedgeMin = 20 * time.Millisecond
	cfg.HedgeMax = 50 * time.Millisecond
	cfg.Spawn = wrapSpawn(func(slot int, h http.Handler) http.Handler {
		if slot != primary {
			return h
		}
		return onCompute(h, func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-r.Context().Done():
				close(loserCancelled)
			case <-time.After(30 * time.Second):
			}
		})
	})
	rt := mustRouter(t, cfg)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	if status, b := post(t, ts.URL, "/v1/run", body); status != http.StatusOK {
		t.Fatalf("hedged request: status %d body %s", status, b)
	}
	if n := rt.reg.Counter("router_hedge_wins_total").Value(); n < 1 {
		t.Errorf("router_hedge_wins_total = %d, want >= 1", n)
	}
	select {
	case <-loserCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("the hedge loser's handler never saw its context cancelled")
	}
}

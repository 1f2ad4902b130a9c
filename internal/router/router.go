// Package router is cmppower's fleet front tier: it spawns (or attaches
// to) N serving-layer shards and routes every request by hashing the
// request's normalized identity — the same key the server's response
// cache, singleflight group, and experiment memo all key on — to a shard
// slot via rendezvous hashing. Identical requests therefore always land
// on the same shard, so each shard's LRU/memo caches stay naturally hot
// (memo-affinity routing), and because every shard computes bit-identical
// results, any shard can answer for any other when one is slow or dead.
// Spawned shards share the router's process and are called in memory
// (their procs are their own transport); attached backends over HTTP.
//
// The paper's thesis, translated to serving (ROADMAP item 2): spread the
// load across more, modestly loaded shards instead of pushing one
// process to its worker-pool ceiling. The router makes that safe under
// faults (DESIGN.md §11):
//
//   - Health checking: active /readyz probes per shard with a
//     consecutive-failure eject / consecutive-success readmit machine.
//   - Circuit breaking: per-shard consecutive-failure trip, cooldown,
//     half-open single probe.
//   - Retry budget: extra attempts (retries and hedges) draw from one
//     global token bucket refilled by normal traffic, so the router can
//     never amplify an outage into a retry storm.
//   - Hedged requests: when a shard exceeds its own recent latency
//     quantile, the same request is fired at the next shard on the ring
//     and the first answer wins — byte-identical responses make this
//     safe, and server-side coalescing dedupes any stragglers.
//   - Autoscaling: a control loop scrapes each shard's queue-depth and
//     admission-rejection metrics and grows or drains the fleet, with a
//     zero-drop graceful drain on scale-down.
package router

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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cmppower/internal/check"
	"cmppower/internal/faults"
	"cmppower/internal/identity"
	"cmppower/internal/obs"
	"cmppower/internal/server"
	"cmppower/internal/traffic"
)

// Config parameterizes a Router. The zero value of every field takes the
// documented default. Exactly one of Backends (attach mode) or
// Shards+Spawn (spawn mode) selects the fleet; the autoscaler and chaos
// kills need spawn mode.
type Config struct {
	// Backends attaches the router to externally managed shard URLs.
	Backends []string
	// Shards is the initial spawned shard count (spawn mode).
	Shards int
	// Spawn boots one shard for a slot; required in spawn mode.
	Spawn SpawnFunc

	// HedgeMin/HedgeMax clamp the hedge delay (defaults 20ms / 2s).
	HedgeMin time.Duration
	HedgeMax time.Duration
	// MaxAttempts bounds total attempts per request, primary included
	// (default 3, capped at the fleet size at pick time).
	MaxAttempts int

	// HealthInterval is the /readyz probe period (default 250ms); it
	// also bounds one probe or metrics scrape.
	HealthInterval time.Duration
	// EjectAfter consecutive probe failures eject a shard (default 3);
	// ReadmitAfter consecutive successes readmit it (default 2).
	EjectAfter   int
	ReadmitAfter int

	// AutoScale enables the scaling control loop (spawn mode only).
	AutoScale bool
	// ScaleInterval is the control-loop period (default 2s).
	ScaleInterval time.Duration
	// ScaleMin/ScaleMax bound the live shard count (defaults 1 / 8).
	ScaleMin int
	ScaleMax int
	// ScaleUpQueue is the mean per-shard queue depth that triggers a
	// scale-up (0 means 1.0); any admission rejection in the window also
	// triggers one.
	ScaleUpQueue float64
	// ScaleDownIdleTicks is how many consecutive idle control ticks
	// (zero queue, zero rejections) precede a scale-down (default 3).
	ScaleDownIdleTicks int

	// Chaos injects fleet-level faults (shard kills, stalls, synthetic
	// backend errors); nil for none. Kills need spawn mode (respawn).
	Chaos *faults.Chaos

	// RequestTimeout bounds one client request across all attempts
	// (default 120s).
	RequestTimeout time.Duration

	// Registry collects router metrics; nil allocates a fresh one.
	Registry *obs.Registry
}

// The router's fixed fleet policy (DESIGN.md §11). Every fleet runs with
// these values; the request body bound is the server's MaxBodyBytes, so
// both tiers refuse the same bodies.
const (
	// hedgeQuantile is the per-shard latency quantile that arms the hedge
	// timer: if the primary has not answered within its own q-quantile,
	// the request is also fired at the next ring shard.
	hedgeQuantile = 0.95
	// latencyPrior seeds a cold shard's quantile estimate.
	latencyPrior = 50 * time.Millisecond
	// retryBudgetRatio is the fraction of normal traffic the fleet may
	// spend on extra attempts; retryBudgetCap bounds the bucket in tokens.
	retryBudgetRatio = 0.1
	retryBudgetCap   = 16
	// breakerFailures consecutive request failures trip a shard's
	// breaker; breakerCooldown is the open → half-open delay.
	breakerFailures = 5
	breakerCooldown = 2 * time.Second
	// drainTimeout bounds a scale-down drain.
	drainTimeout = 30 * time.Second
)

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.HedgeMin <= 0 {
		c.HedgeMin = 20 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.ScaleInterval <= 0 {
		c.ScaleInterval = 2 * time.Second
	}
	if c.ScaleMin <= 0 {
		c.ScaleMin = 1
	}
	if c.ScaleMax <= 0 {
		c.ScaleMax = 8
	}
	if c.ScaleUpQueue == 0 {
		c.ScaleUpQueue = 1.0
	}
	if c.ScaleDownIdleTicks <= 0 {
		c.ScaleDownIdleTicks = 3
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Router is the fleet front tier. Create with New, mount via Handler (or
// Serve/ListenAndServe), stop with Shutdown.
type Router struct {
	cfg    Config
	reg    *obs.Registry
	client *http.Client // reaches shards that are not in-process (see send)
	budget *retryBudget
	// attempts runs shard attempts off the request goroutine; its workers
	// stop with the background loops.
	attempts workers

	// fleetMu guards slot membership and all per-shard state except the
	// atomic inflight counters.
	fleetMu sync.Mutex
	slots   []*shard

	// Background loops (health, scaler, chaos) run on loopCtx and are
	// tracked by loopWG: Shutdown cancels and joins them before any
	// backend is shut down, so no loop ever races a dying shard.
	loopCtx    context.Context
	loopCancel context.CancelFunc
	loopWG     sync.WaitGroup

	mu       sync.Mutex
	httpSrv  *http.Server
	draining atomic.Bool

	classes sync.Map // SLO class → *classMetrics, filled on first use
}

// classMetrics are the metric handles one request of an SLO class
// updates, resolved once per class rather than looked up by name on
// every request. A class's first request registers them, so /metrics
// lists only the classes seen.
type classMetrics struct {
	requests, classRequests, class429 *obs.Counter
	seconds, classSeconds             *obs.Histogram
}

// metricsFor returns class's request-path metric handles.
func (rt *Router) metricsFor(class string) *classMetrics {
	if m, ok := rt.classes.Load(class); ok {
		return m.(*classMetrics)
	}
	m, _ := rt.classes.LoadOrStore(class, &classMetrics{
		requests:      rt.reg.VolatileCounter("router_requests_total"),
		classRequests: rt.reg.VolatileCounter(obs.WithClass("router_class_requests_total", class)),
		class429:      rt.reg.VolatileCounter(obs.WithClass("router_class_429_total", class)),
		seconds:       rt.reg.VolatileHistogram("router_request_seconds", requestSecondsBounds),
		classSeconds:  rt.reg.VolatileHistogram(obs.WithClass("router_class_request_seconds", class), requestSecondsBounds),
	})
	return m.(*classMetrics)
}

// errChaos marks a synthetic backend error injected by the chaos layer.
var errChaos = errors.New("router: chaos-injected backend error")

// New builds the fleet: spawns or attaches every initial shard and
// starts the health, autoscaler, and chaos loops. No client-facing
// socket is opened until Serve.
func New(cfg Config) (*Router, error) {
	if !check.In(cfg.ScaleUpQueue, 0, math.MaxFloat64) {
		return nil, check.Fail("ScaleUpQueue", cfg.ScaleUpQueue, "router: scale-up queue depth %g must be finite and non-negative", cfg.ScaleUpQueue)
	}
	cfg = cfg.withDefaults()
	if len(cfg.Backends) > 0 && cfg.Shards > 0 {
		return nil, fmt.Errorf("router: Backends and Shards are mutually exclusive")
	}
	spawnMode := len(cfg.Backends) == 0
	if spawnMode {
		if cfg.Spawn == nil {
			return nil, fmt.Errorf("router: spawn mode needs a Spawn func")
		}
		if cfg.Shards <= 0 {
			cfg.Shards = 2
		}
		if cfg.Shards < cfg.ScaleMin {
			cfg.Shards = cfg.ScaleMin
		}
		if cfg.Shards > cfg.ScaleMax {
			cfg.Shards = cfg.ScaleMax
		}
	} else {
		if cfg.AutoScale {
			return nil, fmt.Errorf("router: autoscaling needs spawn mode (attached backends are not ours to scale)")
		}
		if cfg.Chaos.Config().KillPeriod > 0 {
			return nil, fmt.Errorf("router: chaos kills need spawn mode (no respawn for attached backends)")
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 1024, MaxIdleConnsPerHost: 256}}
	rt := &Router{
		cfg:        cfg,
		reg:        cfg.Registry,
		client:     client,
		budget:     newRetryBudget(retryBudgetRatio, retryBudgetCap),
		attempts:   newWorkers(ctx.Done()),
		loopCtx:    ctx,
		loopCancel: cancel,
	}

	if spawnMode {
		for i := 0; i < cfg.Shards; i++ {
			if _, err := rt.spawnSlot(i); err != nil {
				cancel()
				rt.shutdownBackends(context.Background())
				return nil, err
			}
		}
	} else {
		for i, url := range cfg.Backends {
			rt.slots = append(rt.slots, rt.newShard(i, attachedProc{url: url}))
		}
	}
	rt.publishFleetGauges()

	rt.loopWG.Add(1)
	go rt.healthLoop()
	if cfg.AutoScale {
		rt.loopWG.Add(1)
		go rt.scaleLoop()
	}
	if cfg.Chaos.Config().KillPeriod > 0 {
		rt.loopWG.Add(1)
		go rt.chaosLoop()
	}
	return rt, nil
}

// newShard wires one slot's tracking state.
func (rt *Router) newShard(slot int, proc Proc) *shard {
	return &shard{
		slot:    slot,
		proc:    proc,
		healthy: true, // optimistic: serve immediately, eject on evidence
		br:      breaker{threshold: breakerFailures},
		lat:     newLatTracker(256, latencyPrior),
		routes:  rt.reg.VolatileCounter(obs.WithShard("router_routes_total", slot)),
	}
}

// spawnSlot boots a shard into slot (reusing a dead slot's index or
// appending) and registers it. Caller must not hold fleetMu.
func (rt *Router) spawnSlot(slot int) (*shard, error) {
	proc, err := rt.cfg.Spawn(slot)
	if err != nil {
		return nil, err
	}
	s := rt.newShard(slot, proc)
	rt.fleetMu.Lock()
	for len(rt.slots) <= slot {
		rt.slots = append(rt.slots, nil)
	}
	rt.slots[slot] = s
	rt.fleetMu.Unlock()
	return s, nil
}

// Handler returns the router's routing handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", rt.proxy)
	mux.HandleFunc("POST /v1/sweep", rt.proxy)
	mux.HandleFunc("POST /v1/explore", rt.proxy)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /fleet", rt.handleFleet)
	return mux
}

// Serve accepts connections on ln until Shutdown.
func (rt *Router) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}
	rt.mu.Lock()
	rt.httpSrv = srv
	rt.mu.Unlock()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe is Serve on a fresh TCP listener.
func (rt *Router) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return rt.Serve(ln)
}

// Shutdown stops the fleet in strict order: (1) readiness flips and the
// client-facing HTTP layer drains — every accepted request completes,
// and with it every hedge timer and retry it owns; (2) the background
// loops (health, scaler, chaos) are context-cancelled and joined, so
// nothing respawns, probes, or rescales a shard from here on; (3) only
// then are the spawned backends drained. A shard is never shut down
// while a loop or an in-flight client request could still touch it.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.draining.Store(true)
	rt.mu.Lock()
	srv := rt.httpSrv
	rt.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	rt.loopCancel()
	rt.loopWG.Wait()
	if bErr := rt.shutdownBackends(ctx); err == nil {
		err = bErr
	}
	return err
}

// shutdownBackends gracefully drains every live spawned shard.
func (rt *Router) shutdownBackends(ctx context.Context) error {
	rt.fleetMu.Lock()
	var procs []Proc
	for _, s := range rt.slots {
		if s != nil && !s.dead && !s.down {
			procs = append(procs, s.proc)
			s.dead = true
		}
	}
	rt.fleetMu.Unlock()
	var wg sync.WaitGroup
	errs := make([]error, len(procs))
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p Proc) {
			defer wg.Done()
			errs[i] = p.Shutdown(ctx)
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Draining reports whether Shutdown has begun.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// target is one ranked routing choice, snapshotted under fleetMu so the
// request path never reads mutable shard fields without the lock. The
// proc is the backend the slot held at pick time: a respawn swaps the
// slot's proc, never a target's.
type target struct {
	shard *shard
	proc  Proc
}

// pick ranks the routable shards for a key by rendezvous score: highest
// score is the affinity owner, the rest are hedge/retry fallbacks in
// deterministic order. An empty result means no shard can take traffic.
func (rt *Router) pick(keyHash uint64) []target {
	now := time.Now()
	rt.fleetMu.Lock()
	defer rt.fleetMu.Unlock()
	type scored struct {
		t     target
		score uint64
	}
	var ranked []scored
	for _, s := range rt.slots {
		if s == nil || !s.routable(now, breakerCooldown) {
			continue
		}
		ranked = append(ranked, scored{target{s, s.proc}, identity.Mix(keyHash, uint64(s.slot))})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })
	out := make([]target, len(ranked))
	for i, sc := range ranked {
		out[i] = sc.t
	}
	return out
}

// normalizeKey decodes and validates one request body the same way the
// backend will, and returns its canonical identity key. Validating here
// means a malformed request is a 400 at the front door, never a wasted
// backend attempt.
func normalizeKey(path string, body []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	switch path {
	case "/v1/run":
		var req server.RunRequest
		if err := dec.Decode(&req); err != nil {
			return "", fmt.Errorf("bad request body: %w", err)
		}
		req.ApplyDefaults()
		if err := req.Validate(); err != nil {
			return "", err
		}
		return identity.Key(path, &req), nil
	case "/v1/sweep":
		var req server.SweepRequest
		if err := dec.Decode(&req); err != nil {
			return "", fmt.Errorf("bad request body: %w", err)
		}
		req.ApplyDefaults()
		if err := req.Validate(); err != nil {
			return "", err
		}
		return identity.Key(path, &req), nil
	case "/v1/explore":
		var req server.ExploreRequest
		if err := dec.Decode(&req); err != nil {
			return "", fmt.Errorf("bad request body: %w", err)
		}
		req.ApplyDefaults()
		if err := req.Validate(); err != nil {
			return "", err
		}
		return identity.Key(path, &req), nil
	}
	return "", fmt.Errorf("router: no identity for %s", path)
}

// proxy is the client-facing request path: normalize → rank shards by
// the identity hash → dispatch with hedging and budgeted retries →
// relay the winning shard response verbatim.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	class := traffic.NormalizeClass(r.Header.Get(traffic.HeaderClass))
	client := r.Header.Get(traffic.HeaderClient)
	// Resolving the handles registers the class's 429 counter, so the
	// family is visible on /metrics at zero before any rejection happens.
	m := rt.metricsFor(class)
	m.requests.Add(1)
	m.classRequests.Add(1)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	w = sw
	start := time.Now()
	defer func() {
		elapsed := time.Since(start).Seconds()
		m.seconds.Observe(elapsed)
		m.classSeconds.Observe(elapsed)
		if sw.status == http.StatusTooManyRequests {
			m.class429.Add(1)
		}
	}()
	rt.budget.deposit()

	r.Body = http.MaxBytesReader(w, r.Body, server.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	key, err := normalizeKey(r.URL.Path, body)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}

	ranked := rt.pick(identity.Hash(key))
	if len(ranked) == 0 {
		rt.reg.VolatileCounter("router_unroutable_total").Add(1)
		w.Header().Set("Retry-After", "1")
		rt.writeError(w, http.StatusServiceUnavailable, errors.New("no routable shard"))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	out := rt.dispatch(ctx, r.URL.Path, body, ranked, class, client)
	if out.err != nil {
		switch {
		case r.Context().Err() != nil:
			rt.writeError(w, server.StatusClientClosedRequest, r.Context().Err())
		case errors.Is(out.err, context.DeadlineExceeded):
			rt.writeError(w, http.StatusGatewayTimeout, out.err)
		default:
			rt.writeError(w, http.StatusBadGateway, fmt.Errorf("all attempts failed: %w", out.err))
		}
		return
	}
	// Relay verbatim: the shard's bytes are the contract (doctor check 13
	// compares them against the direct library marshal).
	if ct := out.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := out.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(out.status)
	w.Write(out.body)
}

// statusWriter records the response status so proxy can attribute
// outcomes (429s in particular) to the request's SLO class.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// requestSecondsBounds bins router latency from cache-hit to long sweep.
var requestSecondsBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 60}

// attemptOut is one backend attempt's outcome.
type attemptOut struct {
	target target
	hedged bool
	status int
	header http.Header
	body   []byte
	err    error
	dur    time.Duration
}

// usable reports whether this outcome can be relayed to the client. A
// 4xx (including 429 backpressure) is the fleet's honest answer and is
// relayed; transport failures and 5xx trigger the retry path.
func (a *attemptOut) usable() bool { return a.err == nil && a.status < 500 }

// dispatch runs the hedged, budgeted attempt ladder over the ranked
// shards and returns the first usable outcome, or the last failure.
// class and client are the traffic tags to forward to the backend so
// shard-level per-class metrics line up with the router's.
func (rt *Router) dispatch(ctx context.Context, path string, body []byte, ranked []target, class, client string) *attemptOut {
	maxAttempts := rt.cfg.MaxAttempts
	if maxAttempts > len(ranked) {
		maxAttempts = len(ranked)
	}
	attemptCtx, cancelAttempts := context.WithCancel(ctx)
	defer cancelAttempts() // losers are cancelled the moment a winner returns

	results := make(chan *attemptOut, maxAttempts)
	next := 0     // index of the next ranked target to try
	launched := 0 // attempts actually in flight or settled
	// launch starts an attempt at the next ranked shard whose breaker
	// admits one (half-open shards take exactly one probe at a time);
	// false means no further shard would accept.
	launch := func(hedged bool) bool {
		for next < len(ranked) && launched < maxAttempts {
			t := ranked[next]
			next++
			rt.fleetMu.Lock()
			admitted := t.shard.br.acquire()
			rt.fleetMu.Unlock()
			if !admitted {
				continue
			}
			t.shard.routes.Add(1)
			launched++
			rt.attempts.run(func() { rt.attempt(attemptCtx, path, body, t, hedged, class, client, results) })
			return true
		}
		return false
	}
	if !launch(false) {
		return &attemptOut{err: errors.New("router: no shard admitted the request")}
	}
	// settleLosers consumes outcomes still in flight after dispatch has
	// decided, off the request path: cancelled losers only release their
	// probe slot (no verdict), anything else still informs the breaker.
	settleLosers := func(pending int) {
		if pending == 0 {
			return
		}
		go func() {
			for i := 0; i < pending; i++ {
				rt.settleLoser(<-results)
			}
		}()
	}

	// The hedge timer arms on the primary's own recent tail: if it has
	// not answered within its q-quantile, someone else gets a copy.
	hedgeDelay := ranked[0].shard.lat.quantile(hedgeQuantile)
	if hedgeDelay < rt.cfg.HedgeMin {
		hedgeDelay = rt.cfg.HedgeMin
	}
	if hedgeDelay > rt.cfg.HedgeMax {
		hedgeDelay = rt.cfg.HedgeMax
	}
	hedgeTimer := time.NewTimer(hedgeDelay)
	defer hedgeTimer.Stop()

	var lastFailure *attemptOut
	received := 0
	for {
		select {
		case out := <-results:
			received++
			rt.recordOutcome(out)
			if out.usable() {
				if out.hedged {
					rt.reg.VolatileCounter("router_hedge_wins_total").Add(1)
				}
				settleLosers(launched - received)
				return out
			}
			lastFailure = out
			if launched < maxAttempts {
				// Failure-triggered retry, if the budget allows.
				if rt.budget.withdraw() {
					if launch(false) {
						rt.reg.VolatileCounter("router_retries_total").Add(1)
						continue
					}
				} else {
					rt.reg.VolatileCounter("router_retry_budget_denied_total").Add(1)
				}
			}
			if received == launched {
				return lastFailure
			}
		case <-hedgeTimer.C:
			if launched < maxAttempts {
				if rt.budget.withdraw() {
					if launch(true) {
						rt.reg.VolatileCounter("router_hedges_total").Add(1)
					}
				} else {
					rt.reg.VolatileCounter("router_retry_budget_denied_total").Add(1)
				}
			}
		case <-ctx.Done():
			settleLosers(launched - received)
			return &attemptOut{err: ctx.Err()}
		}
	}
}

// attempt forwards the request to one shard, applying chaos injection,
// and reports the outcome. The result channel is buffered for every
// possible attempt, so a loser's send never blocks after dispatch
// returns.
func (rt *Router) attempt(ctx context.Context, path string, body []byte, t target, hedged bool, class, client string, results chan<- *attemptOut) {
	out := &attemptOut{target: t, hedged: hedged}
	start := time.Now()
	defer func() {
		out.dur = time.Since(start)
		results <- out
	}()
	t.shard.inflight.Add(1)
	defer t.shard.inflight.Add(-1)

	if rt.cfg.Chaos.BackendError(t.shard.slot) {
		rt.reg.VolatileCounter("router_chaos_errors_total").Add(1)
		out.err = errChaos
		return
	}
	if d := rt.cfg.Chaos.Stall(t.shard.slot); d > 0 {
		rt.reg.VolatileCounter("router_chaos_stalls_total").Add(1)
		select {
		case <-time.After(d):
		case <-ctx.Done():
			out.err = ctx.Err()
			return
		}
	}

	header := http.Header{"Content-Type": {"application/json"}}
	if class != "" {
		header.Set(traffic.HeaderClass, class)
	}
	if client != "" {
		header.Set(traffic.HeaderClient, client)
	}
	resp, err := rt.send(ctx, t.proc, http.MethodPost, path, bytes.NewReader(body), header)
	if err != nil {
		out.err = err
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		out.err = err
		return
	}
	out.status = resp.StatusCode
	out.header = resp.Header
	out.body = b
}

// send makes one shard-facing call (attempt, probe, or scrape) to path
// on p over the proc's transport: the proc itself when it is an
// in-process shard that serves through memory, else the router's HTTP
// client. An in-process call carries the path alone, since parsing the
// shard's URL on every call would be wasted work. header, when non-nil,
// becomes the request's header.
func (rt *Router) send(ctx context.Context, p Proc, method, path string, body io.Reader, header http.Header) (*http.Response, error) {
	tr, inproc := p.(http.RoundTripper)
	if !inproc {
		path = p.URL() + path
	}
	req, err := http.NewRequestWithContext(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	if header != nil {
		req.Header = header
	}
	if inproc {
		return tr.RoundTrip(req)
	}
	return rt.client.Do(req)
}

// settleLoser settles an attempt whose outcome arrived after dispatch
// already decided. A cancellation caused by our own cancelAttempts says
// nothing about the shard, so it only releases any held probe slot; a
// real outcome (late success, genuine failure) still informs the breaker.
func (rt *Router) settleLoser(out *attemptOut) {
	if errors.Is(out.err, context.Canceled) {
		rt.fleetMu.Lock()
		out.target.shard.br.release()
		rt.fleetMu.Unlock()
		return
	}
	rt.recordOutcome(out)
}

// recordOutcome feeds one received attempt into the shard's breaker and
// latency tracker. Only received outcomes count: a loser cancelled
// because someone else won is never charged against its shard.
func (rt *Router) recordOutcome(out *attemptOut) {
	s := out.target.shard
	if s == nil {
		return
	}
	ok := out.err == nil && out.status < 500
	rt.fleetMu.Lock()
	tripped := s.br.record(ok, time.Now())
	rt.fleetMu.Unlock()
	if tripped {
		rt.reg.VolatileCounter(obs.WithShard("router_breaker_open_total", s.slot)).Add(1)
	}
	if out.err == nil && out.status >= 200 && out.status < 300 {
		s.lat.observe(out.dur)
	}
	if out.err != nil && !errors.Is(out.err, context.Canceled) {
		rt.reg.VolatileCounter("router_backend_errors_total").Add(1)
	}
}

// handleHealthz is liveness.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: ready only while not draining and at least
// one shard can take traffic.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if rt.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if len(rt.pick(0)) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no routable shard")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves the router registry as Prometheus exposition.
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.reg.WriteText(w)
}

// FleetInfo is the wire form of GET /fleet.
type FleetInfo struct {
	Shards []ShardInfo `json:"shards"`
}

// handleFleet serves the live shard table (debugging, smoke assertions).
func (rt *Router) handleFleet(w http.ResponseWriter, _ *http.Request) {
	rt.fleetMu.Lock()
	info := FleetInfo{}
	for _, s := range rt.slots {
		if s != nil {
			info.Shards = append(info.Shards, s.info())
		}
	}
	rt.fleetMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&info)
}

// writeError renders the uniform JSON error body.
func (rt *Router) writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, mErr := json.Marshal(map[string]string{"error": err.Error()})
	if mErr != nil {
		body = []byte(`{"error":"internal"}`)
	}
	w.Write(body)
}

// publishFleetGauges refreshes the shard-count gauges.
func (rt *Router) publishFleetGauges() {
	now := time.Now()
	rt.fleetMu.Lock()
	live, routable := 0, 0
	for _, s := range rt.slots {
		if s == nil || s.dead {
			continue
		}
		live++
		if s.routable(now, breakerCooldown) {
			routable++
		}
	}
	rt.fleetMu.Unlock()
	rt.reg.VolatileGauge("router_shards").Set(float64(live))
	rt.reg.VolatileGauge("router_shards_routable").Set(float64(routable))
}

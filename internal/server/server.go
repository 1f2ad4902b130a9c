// Package server exposes the whole cmppower model as a long-running
// HTTP JSON service: single runs (POST /v1/run), Scenario I/II sweeps
// (POST /v1/sweep), design-space exploration (POST /v1/explore), plus
// liveness (GET /healthz), readiness (GET /readyz) and a live Prometheus
// text exposition (GET /metrics) of the shared obs registry.
//
// The hot path is production-shaped (DESIGN.md §10):
//
//   - Coalescing: identical concurrent requests share one simulation via
//     a singleflight keyed on the normalized request — the same identity
//     the experiment memo cache keys on underneath.
//   - Response cache: a size-bounded LRU of serialized 200 responses,
//     layered over the (LRU-bounded) measurement memo cache.
//   - Admission control: a fixed simulation worker pool plus a bounded
//     wait queue; overflow is rejected with 429 and a Retry-After
//     estimate derived from the observed run-duration EWMA.
//   - Deadlines: every request carries a context with the server's
//     request timeout, propagated into the cancellable sweep engine; a
//     client disconnect surfaces as 499 (client closed request), never
//     as a retried transient.
//   - Graceful shutdown: readiness flips first, the HTTP server then
//     drains in-flight requests, and only afterwards is the flight base
//     context cancelled.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmppower/internal/experiment"
	"cmppower/internal/explore"
	"cmppower/internal/faults"
	"cmppower/internal/obs"
	"cmppower/internal/scenario"
	"cmppower/internal/surrogate"
	"cmppower/internal/traffic"
)

// StatusClientClosedRequest is the 499 status the server reports when
// the client disconnected before the response was ready (nginx's code;
// Go's stdlib has no name for it).
const StatusClientClosedRequest = 499

// Config parameterizes a Server. The zero value gives the documented
// defaults.
type Config struct {
	// Workers bounds concurrent simulations (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot before the
	// server answers 429 (<= 0 means 4× Workers).
	QueueDepth int
	// CacheEntries bounds the LRU response cache (< 0 disables it; 0
	// means 1024).
	CacheEntries int
	// MemoCapacity bounds each rig's measurement memo cache (<= 0 means
	// experiment.DefaultMemoCapacity).
	MemoCapacity int
	// RequestTimeout is the per-request simulation deadline (<= 0 means
	// 120 s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (<= 0 means 1 MiB).
	MaxBodyBytes int64
	// SurrogateOff disables the surrogate fast path: no store is built,
	// no runs train fits, and surrogate-mode requests always fall back to
	// simulation. The zero value (surrogate on) changes nothing about
	// exact-mode responses — doctor check 14 proves they stay
	// byte-identical either way.
	SurrogateOff bool
	// Registry collects server and simulation metrics; nil allocates a
	// fresh one (GET /metrics always has something to serve).
	Registry *obs.Registry
}

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	switch {
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	case c.CacheEntries == 0:
		c.CacheEntries = 1024
	}
	if c.MemoCapacity <= 0 {
		c.MemoCapacity = experiment.DefaultMemoCapacity
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Server is the HTTP serving layer. Create with New, mount via Handler
// (or Serve/ListenAndServe), stop with Shutdown.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	adm     *admission
	flights *flightGroup
	cache   *lruCache
	rigs    *rigPool
	surr    *surrogate.Store

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	httpSrv  *http.Server
	draining atomic.Bool
	inflight atomic.Int64

	classes sync.Map // SLO class → *classMetrics, filled on first use

	// testLeaderGate, when non-nil, blocks every flight leader just
	// before it computes; tests use it to sequence coalescing and
	// backpressure deterministically.
	testLeaderGate chan struct{}
}

// classMetrics are the metric handles one request of an SLO class
// updates, resolved once per class rather than looked up by name on
// every request. A class's first request registers them, so /metrics
// lists only the classes seen.
type classMetrics struct {
	requests, classRequests, class429 *obs.Counter
	inflight                          *obs.Gauge
	seconds, classSeconds             *obs.Histogram
}

// metricsFor returns class's request-path metric handles.
func (s *Server) metricsFor(class string) *classMetrics {
	if m, ok := s.classes.Load(class); ok {
		return m.(*classMetrics)
	}
	m, _ := s.classes.LoadOrStore(class, &classMetrics{
		requests:      s.reg.VolatileCounter("server_requests_total"),
		classRequests: s.reg.VolatileCounter(obs.WithClass("server_class_requests_total", class)),
		class429:      s.reg.VolatileCounter(obs.WithClass("server_class_429_total", class)),
		inflight:      s.reg.VolatileGauge("server_inflight"),
		seconds:       s.reg.VolatileHistogram("server_request_seconds", requestSecondsBounds),
		classSeconds:  s.reg.VolatileHistogram(obs.WithClass("server_class_request_seconds", class), requestSecondsBounds),
	})
	return m.(*classMetrics)
}

// New builds a Server; no sockets are opened until Serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	var surr *surrogate.Store
	if !cfg.SurrogateOff {
		surr = surrogate.NewStore(surrogate.Options{Registry: cfg.Registry})
	}
	return &Server{
		cfg:        cfg,
		reg:        cfg.Registry,
		adm:        newAdmission(cfg.Workers, cfg.QueueDepth),
		flights:    newFlightGroup(),
		cache:      newLRUCache(cfg.CacheEntries),
		rigs:       newRigPool(cfg.Registry, cfg.MemoCapacity, surr),
		surr:       surr,
		baseCtx:    ctx,
		baseCancel: cancel,
	}
}

// Handler returns the server's routing handler (also usable under
// httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.instrument(s.handleRun))
	mux.HandleFunc("POST /v1/sweep", s.instrument(s.handleSweep))
	mux.HandleFunc("POST /v1/explore", s.instrument(s.handleExplore))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Serve accepts connections on ln until Shutdown; it returns nil after a
// clean shutdown, and at once (closing ln) when Shutdown or Close came
// first.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return ln.Close()
	}
	s.httpSrv = srv
	s.mu.Unlock()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe is Serve on a fresh TCP listener.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown drains the server: readiness flips to 503, the HTTP layer
// stops accepting and waits for in-flight requests (bounded by ctx),
// and only then is the flight base context cancelled — so a clean drain
// never cancels a simulation a connected client is still waiting on.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	s.baseCancel()
	return err
}

// Close abruptly stops the server: the flight base context is cancelled
// first (in-flight simulations die immediately), then every listener and
// active connection is closed mid-stream. This is the chaos kill path a
// fleet uses to model a crashed shard — a clean stop is Shutdown.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.baseCancel()
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv != nil {
		return srv.Close()
	}
	return nil
}

// Draining reports whether Shutdown has begun (readyz's answer).
func (s *Server) Draining() bool { return s.draining.Load() }

// instrument wraps a compute handler with the request-level metrics —
// overall and per SLO class, read from the X-Cmppower-Class header the
// traffic layer tags requests with (untagged requests count under the
// catch-all class) — and the per-request deadline.
func (s *Server) instrument(h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		// Resolving the handles registers the class's 429 counter, so the
		// family is visible on /metrics at zero before any rejection happens.
		m := s.metricsFor(traffic.NormalizeClass(r.Header.Get(traffic.HeaderClass)))
		m.requests.Add(1)
		m.classRequests.Add(1)
		m.inflight.Set(float64(s.inflight.Add(1)))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		defer func() {
			m.inflight.Set(float64(s.inflight.Add(-1)))
			elapsed := time.Since(start).Seconds()
			m.seconds.Observe(elapsed)
			m.classSeconds.Observe(elapsed)
			if sw.status == http.StatusTooManyRequests {
				m.class429.Add(1)
			}
		}()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(sw, r.WithContext(ctx))
	}
}

// statusWriter records the response status so instrument can attribute
// outcomes (429s in particular) to the request's SLO class.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// requestSecondsBounds bins request latency from cache-hit to long sweep.
var requestSecondsBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 60}

// handleHealthz is liveness: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 503 once draining so load balancers stop
// routing here before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves the live registry as Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteText(w); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

// handleRun serves POST /v1/run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if strings.TrimSpace(req.Mode) == "" && approxRequested(r) {
		req.Mode = ModeSurrogate
	}
	req.ApplyDefaults()
	if err := req.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Mode == ModeSurrogate {
		s.handleRunSurrogate(w, r, &req)
		return
	}
	s.serveCoalesced(w, r, cacheKey("/v1/run", &req), func(ctx context.Context) (*response, error) {
		m, err := s.computeRun(ctx, &req)
		if err != nil {
			return nil, err
		}
		return okJSON(&RunResponse{Measurement: m, ChipDigest: chipDigest(req.Chip)})
	})
}

// handleSweep serves POST /v1/sweep.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	req.ApplyDefaults()
	if err := req.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveCoalesced(w, r, cacheKey("/v1/sweep", &req), func(ctx context.Context) (*response, error) {
		resp, err := s.computeSweep(ctx, &req)
		if err != nil {
			return nil, err
		}
		return okJSON(resp)
	})
}

// handleExplore serves POST /v1/explore.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if strings.TrimSpace(req.Mode) == "" && approxRequested(r) {
		req.Mode = ModeSurrogate
	}
	req.ApplyDefaults()
	if err := req.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Mode == ModeSurrogate {
		s.handleExploreSurrogate(w, r, &req)
		return
	}
	s.serveCoalesced(w, r, cacheKey("/v1/explore", &req), func(ctx context.Context) (*response, error) {
		apps, err := resolveApps(req.Apps)
		if err != nil {
			return nil, err
		}
		outs, err := explore.ExploreScenario(ctx, apps, explore.StandardOptions(), req.Chip, req.Scale, 1, s.reg)
		if err != nil {
			return nil, err
		}
		resp := NewExploreResponse(outs)
		resp.ChipDigest = chipDigest(req.Chip)
		return okJSON(resp)
	})
}

// serveCoalesced is the shared hot path: response cache → singleflight →
// admission → compute. compute runs on the flight's context (derived
// from the server base context plus the request timeout), so it survives
// any individual client's disconnect while at least one request still
// wants the answer.
func (s *Server) serveCoalesced(w http.ResponseWriter, r *http.Request, key string, compute func(context.Context) (*response, error)) {
	if resp, ok := s.cache.get(key); ok {
		s.reg.VolatileCounter("server_cache_hits_total").Add(1)
		s.writeResponse(w, resp)
		return
	}
	s.reg.VolatileCounter("server_cache_misses_total").Add(1)

	f, leader := s.flights.join(s.baseCtx, key)
	defer s.flights.leave(key, f)
	if leader {
		go s.lead(key, f, compute)
	} else {
		s.reg.VolatileCounter("server_coalesced_total").Add(1)
	}
	select {
	case <-f.done:
		if f.err != nil {
			s.writeComputeError(w, r, f.err)
			return
		}
		s.writeResponse(w, f.resp)
	case <-r.Context().Done():
		// This client gave up (disconnect or deadline); the flight keeps
		// running for any remaining waiters — leave() handles the
		// nobody-left cancellation.
		s.writeComputeError(w, r, r.Context().Err())
	}
}

// lead runs one flight to completion: admission, the per-request
// deadline, the computation, and publication into the response cache.
func (s *Server) lead(key string, f *flight, compute func(context.Context) (*response, error)) {
	s.reg.VolatileGauge("server_queue_depth").Set(float64(s.adm.queued.Load()))
	release, err := s.adm.acquire(f.ctx)
	if err != nil {
		if _, ok := retryAfterHeader(err); ok {
			s.reg.VolatileCounter("server_admission_rejected_total").Add(1)
		}
		s.flights.finish(key, f, nil, err)
		return
	}
	defer release()
	s.reg.VolatileCounter("server_computations_total").Add(1)
	if s.testLeaderGate != nil {
		<-s.testLeaderGate
	}
	ctx, cancel := context.WithTimeout(f.ctx, s.cfg.RequestTimeout)
	defer cancel()
	start := time.Now()
	resp, err := compute(ctx)
	s.adm.observe(time.Since(start))
	if err != nil {
		s.flights.finish(key, f, nil, err)
		return
	}
	if resp.status == http.StatusOK {
		if evicted := s.cache.put(key, resp); evicted > 0 {
			s.reg.VolatileCounter("server_cache_evictions_total").Add(int64(evicted))
		}
		s.reg.VolatileGauge("server_cache_entries").Set(float64(s.cache.len()))
	}
	s.flights.finish(key, f, resp, nil)
}

// computeRun executes one RunRequest on the (scale, chip) pooled rig.
func (s *Server) computeRun(ctx context.Context, req *RunRequest) (*experiment.Measurement, error) {
	rig, err := s.rigs.get(req.Scale, req.Chip)
	if err != nil {
		return nil, err
	}
	w, err := s.requestRig(rig, req.Seed, req.Faults, req.DTM)
	if err != nil {
		return nil, err
	}
	app, err := resolveApps([]string{req.App})
	if err != nil {
		return nil, err
	}
	point := w.Table.Nominal()
	if req.FreqMHz > 0 {
		point = w.Table.PointFor(req.FreqMHz * 1e6)
	}
	if !app[0].RunsOn(req.N) {
		return nil, &badRequestError{fmt.Errorf("%s does not run on %d cores", req.App, req.N)}
	}
	return w.RunAppSeeded(ctx, app[0], req.N, point, req.Seed)
}

// computeSweep executes one SweepRequest on the scale's pooled rig,
// serially per request — concurrency comes from concurrent requests,
// each holding one admission slot, so -j bounds total simulation work.
func (s *Server) computeSweep(ctx context.Context, req *SweepRequest) (*SweepResponse, error) {
	rig, err := s.rigs.get(req.Scale, req.Chip)
	if err != nil {
		return nil, err
	}
	w, err := s.requestRig(rig, req.Seed, req.Faults, req.DTM)
	if err != nil {
		return nil, err
	}
	apps, err := resolveApps(req.Apps)
	if err != nil {
		return nil, err
	}
	rc := experiment.DefaultRetryConfig()
	rc.Attempts = req.Retries
	cfg := experiment.SweepConfig{Retry: rc, Workers: 1}
	var outcomes []experiment.SweepOutcome
	switch req.Scenario {
	case "I":
		outcomes, err = w.SweepScenarioIWith(ctx, apps, req.CoreCounts, cfg)
	case "II":
		outcomes, err = w.SweepScenarioIIWith(ctx, apps, req.CoreCounts, cfg)
	}
	if err != nil {
		// Cancellation/timeout of the whole sweep: the partial result is
		// not served — the error carries the context cause to statusOf.
		return nil, err
	}
	resp := NewSweepResponse(req.Scenario, w.BudgetW(), outcomes)
	resp.ChipDigest = chipDigest(req.Chip)
	return resp, nil
}

// requestRig clones the pooled rig for one request, applying the
// request's seed, fault spec, and DTM switch. The clone shares the
// parent's memo cache and registry; fault-injected clones bypass the
// memo by construction.
func (s *Server) requestRig(rig *experiment.Rig, seed uint64, faultSpec string, dtm bool) (*experiment.Rig, error) {
	w := rig.Clone()
	w.Seed = seed
	if faultSpec != "" {
		inj, err := faults.ParseSpec(faultSpec, seed)
		if err != nil {
			return nil, &badRequestError{err}
		}
		w.Faults = inj
	}
	if dtm {
		d := experiment.DefaultDTMConfig()
		w.DTM = &d
	}
	return w, nil
}

// badRequestError marks a client-side error discovered after decoding.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// statusOf maps a computation error to its HTTP status. Order matters:
// client cancellation must win over the transient classification an
// attempt() joined error also carries — a disconnected client is a 499,
// never a retried 500.
func statusOf(err error) int {
	var br *badRequestError
	var oe *overloadError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.As(err, &oe):
		return http.StatusTooManyRequests
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeComputeError renders a failed computation, attaching Retry-After
// on overload.
func (s *Server) writeComputeError(w http.ResponseWriter, r *http.Request, err error) {
	status := statusOf(err)
	if ra, ok := retryAfterHeader(err); ok {
		w.Header().Set("Retry-After", ra)
	}
	// A 499 usually goes nowhere (the client hung up), but a request
	// whose own deadline fired while coalesced on a live flight still
	// reads it.
	s.writeError(w, status, err)
}

// writeError renders the uniform JSON error body and counts the
// response class.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	body, mErr := json.Marshal(&errorBody{Error: err.Error()})
	if mErr != nil {
		body = []byte(`{"error":"internal"}`)
	}
	s.writeResponse(w, &response{status: status, body: body})
}

// writeResponse writes a materialized response and counts its class.
func (s *Server) writeResponse(w http.ResponseWriter, resp *response) {
	s.countStatus(resp.status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// countStatus publishes per-class (and a few exact) response counters.
func (s *Server) countStatus(status int) {
	switch {
	case status == http.StatusTooManyRequests:
		s.reg.VolatileCounter("server_responses_429_total").Add(1)
	case status == StatusClientClosedRequest:
		s.reg.VolatileCounter("server_responses_499_total").Add(1)
	case status >= 200 && status < 300:
		s.reg.VolatileCounter("server_responses_2xx_total").Add(1)
	case status >= 400 && status < 500:
		s.reg.VolatileCounter("server_responses_4xx_total").Add(1)
	default:
		s.reg.VolatileCounter("server_responses_5xx_total").Add(1)
	}
}

// okJSON serializes a 200 payload exactly as json.Marshal emits it, so
// a cached body, a coalesced body, and a direct library marshal of the
// same value are byte-identical (doctor check 12 compares them).
func okJSON(v any) (*response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return &response{status: http.StatusOK, body: body}, nil
}

// decodeJSON strictly decodes one JSON body.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// rigKey identifies one pooled rig: the workload scale plus the chip's
// scenario cache identity — empty for the implicit baseline chip and for
// scenario documents canonically equal to it (those share the legacy
// rig, and with it every memo and surrogate cache entry, bit for bit),
// the scenario's content digest otherwise.
type rigKey struct {
	scale float64
	chip  string
}

// rigPool caches calibrated rigs by (scale, chip). The first request for
// each chip pays one full build (calibration: thermal solves); every
// later scale of that chip derives from its ancestor via CloneForScale —
// a struct copy, since nothing in the apparatus depends on the scale and
// the thermal factorization is pooled process-wide. Derived rigs share
// their ancestor's memo cache (entries key on scale, so they never
// cross), making the memo budget a single bound per chip.
type rigPool struct {
	mu       sync.Mutex
	reg      *obs.Registry
	memoCap  int
	surr     *surrogate.Store
	capacity int
	bases    map[string]*experiment.Rig // per-chip ancestors for CloneForScale
	rigs     map[rigKey]*experiment.Rig
	order    []rigKey // LRU, last = most recently used
}

func newRigPool(reg *obs.Registry, memoCap int, surr *surrogate.Store) *rigPool {
	return &rigPool{reg: reg, memoCap: memoCap, surr: surr, capacity: 8,
		bases: make(map[string]*experiment.Rig), rigs: make(map[rigKey]*experiment.Rig)}
}

// chipIdent maps an optional (already validated) chip scenario to its
// pool identity: "" for nil and for baseline-equivalent documents, the
// content digest otherwise — the same collapsing the experiment layer's
// cache keys perform.
func chipIdent(sc *scenario.Scenario) (string, error) {
	if sc == nil {
		return "", nil
	}
	baseline, err := sc.IsBaseline()
	if err != nil || baseline {
		return "", err
	}
	return sc.Digest()
}

// get returns the rig for (scale, chip), deriving it on first use (a
// clone of the chip's ancestor when one exists, a full build otherwise)
// and evicting the least-recently-used rig past the pool bound. The
// baseline ancestor is kept forever even after its scales are evicted;
// a scenario chip's ancestor is released once no pooled scale still
// derives from it.
func (p *rigPool) get(scale float64, chip *scenario.Scenario) (*experiment.Rig, error) {
	ident, err := chipIdent(chip)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := rigKey{scale: scale, chip: ident}
	if rig, ok := p.rigs[key]; ok {
		p.touch(key)
		return rig, nil
	}
	var rig *experiment.Rig
	if base := p.bases[ident]; base != nil {
		rig, err = base.CloneForScale(scale)
	} else {
		if ident == "" {
			// Baseline-equivalent scenario bodies build the plain legacy rig:
			// NewRigFromScenario on them is bit-identical anyway, and this
			// keeps one shared ancestor for the common case.
			rig, err = experiment.NewRig(scale)
		} else {
			rig, err = experiment.NewRigFromScenario(chip, scale)
		}
		if err == nil {
			rig.Obs = p.reg
			rig.EnableMemoBounded(p.memoCap)
			// Every simulated run trains the surrogate; scale-derived and
			// per-request clones share the pointer like the memo cache.
			rig.Surrogate = p.surr
			p.bases[ident] = rig
		}
	}
	if err != nil {
		return nil, err
	}
	p.rigs[key] = rig
	p.order = append(p.order, key)
	if len(p.order) > p.capacity {
		evict := p.order[0]
		p.order = p.order[1:]
		delete(p.rigs, evict)
		p.dropBaseIfOrphan(evict.chip)
		p.reg.VolatileCounter("server_rig_evictions_total").Add(1)
	}
	p.reg.VolatileGauge("server_rigs").Set(float64(len(p.rigs)))
	return rig, nil
}

// dropBaseIfOrphan releases a scenario chip's ancestor once no pooled
// scale still derives from it. The baseline ancestor ("" ident) is kept
// forever: it is the common case, and holding it makes a re-requested
// scale a struct copy instead of a recalibration.
func (p *rigPool) dropBaseIfOrphan(chip string) {
	if chip == "" {
		return
	}
	for _, k := range p.order {
		if k.chip == chip {
			return
		}
	}
	delete(p.bases, chip)
}

// touch moves key to the most-recently-used end.
func (p *rigPool) touch(key rigKey) {
	for i, k := range p.order {
		if k == key {
			p.order = append(append(p.order[:i:i], p.order[i+1:]...), key)
			return
		}
	}
}

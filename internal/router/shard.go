package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cmppower/internal/obs"
	"cmppower/internal/server"
)

// Proc is one backend shard process as the router sees it: an address
// plus a lifecycle. In-process shards (SpawnInProcess) implement the full
// lifecycle and are also the router's transport to themselves (an
// http.RoundTripper that calls the shard's handler in memory); attached
// external `cmppower serve` processes are addresses the router reaches
// over HTTP and does not own (Kill and Shutdown are no-ops there — their
// operator controls them). Implementations must be comparable: the
// router tells a respawned slot from the proc it replaced by identity.
type Proc interface {
	// URL is the shard's base URL, e.g. "http://127.0.0.1:43712".
	URL() string
	// Kill stops the shard abruptly: in-flight requests die mid-stream.
	// The chaos path.
	Kill()
	// Shutdown drains the shard gracefully within ctx.
	Shutdown(ctx context.Context) error
}

// SpawnFunc boots one backend shard for the given slot and returns it
// already serving. The autoscaler and the chaos respawn path call it.
type SpawnFunc func(slot int) (Proc, error)

// SpawnInProcess returns a SpawnFunc that boots a complete serving-layer
// shard in this process. Each shard gets its own registry, rig pool,
// response cache, memo cache, and admission queue — share-nothing, the
// topology of separate `cmppower serve` processes minus the exec. The
// router reaches the shard by calling its handler directly, with no
// socket in between; the shard also listens on a loopback port, which
// /fleet reports, so operators and direct clients can still reach it
// over HTTP.
func SpawnInProcess(base server.Config) SpawnFunc {
	return func(slot int) (Proc, error) {
		cfg := base
		cfg.Registry = obs.NewRegistry() // never share a registry across shards
		srv := server.New(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("router: spawn shard %d: %w", slot, err)
		}
		p := &inprocShard{
			srv:    srv,
			h:      srv.Handler(),
			host:   ln.Addr().String(),
			served: make(chan struct{}),
			killed: make(chan struct{}),
		}
		p.workers = newWorkers(p.served)
		go func() {
			p.serveErr = srv.Serve(ln)
			close(p.served)
		}()
		return p, nil
	}
}

// errShardStopped is the transport error of a call to an in-process
// shard that was killed or is shutting down — the in-memory analogue of
// a refused or reset connection.
var errShardStopped = errors.New("router: in-process shard stopped")

// inprocShard is a SpawnInProcess backend.
type inprocShard struct {
	srv  *server.Server
	h    http.Handler // srv's routes; RoundTrip calls it directly
	host string       // the loopback listener's address

	served   chan struct{} // closed when the listener's Serve returns
	serveErr error         // Serve's result; read after served is closed

	// mu guards closed and orders inflight.Add against Shutdown's Wait.
	mu       sync.Mutex
	closed   bool           // Kill or Shutdown has begun: refuse new calls
	inflight sync.WaitGroup // in-process calls whose handler is still running
	killed   chan struct{}  // closed by Kill: in-flight calls fail at once

	workers workers // run the handlers; they stop with the listener
}

func (p *inprocShard) URL() string { return "http://" + p.host }

// Kill refuses new calls, fails in-flight ones, and closes the server:
// its base context is cancelled, so the handlers' flights die too.
func (p *inprocShard) Kill() {
	p.mu.Lock()
	p.closed = true
	select {
	case <-p.killed:
	default:
		close(p.killed)
	}
	p.mu.Unlock()
	p.srv.Close()
	<-p.served // the Serve goroutine has exited; the port is free
}

// Shutdown refuses new calls, waits within ctx for in-flight in-process
// calls (as http.Server.Shutdown waits for connections), then drains the
// listener and the server.
func (p *inprocShard) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		p.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if sErr := p.srv.Shutdown(ctx); err == nil {
		err = sErr
	}
	select {
	case <-p.served:
		if err == nil {
			err = p.serveErr
		}
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// enter registers one in-process call, or reports that the shard no
// longer takes calls.
func (p *inprocShard) enter() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.inflight.Add(1)
	return true
}

// RoundTrip serves req by calling the shard's handler in memory. It
// behaves like http.Transport toward a live server: it returns
// ctx.Err() as soon as the request's context is done (the handler then
// finishes on its own goroutine and sees the cancellation), a transport
// error once the shard is killed or shutting down, and a transport error
// when the handler panics. A response completed after a kill is dropped.
func (p *inprocShard) RoundTrip(req *http.Request) (*http.Response, error) {
	if !p.enter() {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errShardStopped
	}
	sreq := serverRequest(req, p.host)
	done := make(chan inprocResult, 1)
	p.workers.run(func() {
		defer p.inflight.Done()
		done <- p.serve(sreq)
	})
	select {
	case res := <-done:
		select {
		case <-p.killed:
			return nil, errShardStopped
		default:
		}
		return res.resp, res.err
	case <-req.Context().Done():
		return nil, req.Context().Err()
	case <-p.killed:
		return nil, errShardStopped
	}
}

// workerIdle is how long an idle worker waits for its next job.
const workerIdle = time.Second

// workers runs jobs on goroutines that outlive one job, so each job
// reuses a stack already grown to its depth: growing a fresh goroutine's
// stack costs as much as a cached handler call. A worker exits after
// workerIdle without a job, or once stop is closed.
type workers struct {
	idle chan func() // idle workers take their next job here
	stop <-chan struct{}
}

func newWorkers(stop <-chan struct{}) workers {
	return workers{idle: make(chan func()), stop: stop}
}

// run starts job on an idle worker, or on a new one when none is idle.
func (w workers) run(job func()) {
	select {
	case w.idle <- job:
	default:
		go w.work(job)
	}
}

func (w workers) work(job func()) {
	timer := time.NewTimer(workerIdle)
	defer timer.Stop()
	for {
		job()
		timer.Reset(workerIdle)
		select {
		case job = <-w.idle:
		case <-timer.C:
			return
		case <-w.stop:
			return
		}
	}
}

// inprocResult is one handler run's outcome.
type inprocResult struct {
	resp *http.Response
	err  error
}

// serve runs the handler into a buffered response. A panic is recovered
// into an error, as net/http confines one to its connection: a broken
// handler fails the attempt, never the fleet process.
func (p *inprocShard) serve(req *http.Request) (res inprocResult) {
	defer req.Body.Close()
	defer func() {
		if v := recover(); v != nil {
			res = inprocResult{err: fmt.Errorf("router: in-process shard handler panicked: %v", v)}
		}
	}()
	w := &bufferedWriter{header: make(http.Header)}
	p.h.ServeHTTP(w, req)
	return inprocResult{resp: w.response(req)}
}

// serverRequest shapes an outgoing client request the way net/http hands
// an incoming one to a handler: path-only URL, RequestURI, Host (the
// shard's own host unless req names one), a non-nil Body, and the
// caller's context. The copy is shallow (headers are shared; handlers
// only read them) and RoundTrip never modifies req.
func serverRequest(req *http.Request, host string) *http.Request {
	s := req.WithContext(req.Context())
	s.URL = &url.URL{Path: req.URL.Path, RawPath: req.URL.RawPath, RawQuery: req.URL.RawQuery}
	s.RequestURI = req.URL.RequestURI()
	if s.Host == "" {
		s.Host = host
	}
	if s.Body == nil {
		s.Body = http.NoBody
	}
	return s
}

// bufferedWriter is the in-process http.ResponseWriter: it buffers the
// whole response and, like net/http, fixes the header at WriteHeader.
type bufferedWriter struct {
	header http.Header
	sent   http.Header // the header as of WriteHeader; nil before it
	status int
	body   bytes.Buffer
}

func (w *bufferedWriter) Header() http.Header { return w.header }

func (w *bufferedWriter) WriteHeader(status int) {
	if w.sent != nil {
		return // superfluous, as net/http treats it
	}
	w.status = status
	w.sent = w.header.Clone()
}

func (w *bufferedWriter) Write(b []byte) (int, error) {
	if w.sent == nil {
		w.WriteHeader(http.StatusOK)
	}
	return w.body.Write(b)
}

// response is the buffered reply as a client-side *http.Response.
func (w *bufferedWriter) response(req *http.Request) *http.Response {
	if w.sent == nil {
		w.WriteHeader(http.StatusOK)
	}
	if w.sent.Get("Content-Type") == "" && w.body.Len() > 0 {
		w.sent.Set("Content-Type", http.DetectContentType(w.body.Bytes()))
	}
	return &http.Response{
		Status:        strconv.Itoa(w.status) + " " + http.StatusText(w.status),
		StatusCode:    w.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.sent,
		Body:          io.NopCloser(bytes.NewReader(w.body.Bytes())),
		ContentLength: int64(w.body.Len()),
		Request:       req,
	}
}

// attachedProc wraps an external backend URL the router routes to but
// does not own.
type attachedProc struct{ url string }

func (p attachedProc) URL() string                    { return p.url }
func (p attachedProc) Kill()                          {}
func (p attachedProc) Shutdown(context.Context) error { return nil }

// shard is one slot of the fleet: a backend plus the router's view of it.
// All fields except inflight are guarded by the owning Router's fleet
// mutex; inflight is atomic because the request path bumps it outside
// the lock.
type shard struct {
	slot int
	proc Proc

	// Lifecycle. A dead shard was drained away by the autoscaler and its
	// slot may be respawned later; a down shard was chaos-killed and is
	// awaiting respawn.
	dead     bool
	down     bool
	draining bool

	// Health checker state: the eject/readmit streak machine.
	healthy    bool
	consecFail int
	consecOK   int

	br  breaker
	lat *latTracker

	// lastRejected remembers the previous scrape's cumulative admission
	// rejections so the autoscaler works on deltas.
	lastRejected float64

	routes   *obs.Counter // router_routes_total for this slot
	inflight atomic.Int64
}

// routable reports whether the request path may send new work here.
// Caller holds the fleet mutex. now feeds the breaker's cooldown check.
func (s *shard) routable(now time.Time, cooldown time.Duration) bool {
	if s == nil || s.dead || s.down || s.draining || !s.healthy {
		return false
	}
	return s.br.eligible(now, cooldown)
}

// ShardInfo is the wire form of one slot on GET /fleet.
type ShardInfo struct {
	Slot     int    `json:"slot"`
	URL      string `json:"url"`
	State    string `json:"state"` // active, ejected, draining, down, dead
	Breaker  string `json:"breaker"`
	Inflight int64  `json:"inflight"`
}

// info snapshots one slot; caller holds the fleet mutex.
func (s *shard) info() ShardInfo {
	state := "active"
	switch {
	case s.dead:
		state = "dead"
	case s.down:
		state = "down"
	case s.draining:
		state = "draining"
	case !s.healthy:
		state = "ejected"
	}
	return ShardInfo{Slot: s.slot, URL: s.proc.URL(), State: state,
		Breaker: s.br.state.String(), Inflight: s.inflight.Load()}
}

// waitDrained polls until the shard has no in-flight requests or ctx
// expires; used by scale-down so no accepted request is dropped.
func (s *shard) waitDrained(ctx context.Context) error {
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("router: slot %d still has %d in-flight after drain bound", s.slot, s.inflight.Load())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

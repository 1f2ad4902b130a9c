// Loadgen is the serving layer's in-repo load generator: closed-loop
// (fixed concurrency, each worker fires as soon as the previous response
// lands), open-loop (fixed arrival rate, latency measured under queueing
// like a real external client population), a closed-loop concurrency
// ramp, and traffic-spec playback (PlaySchedule, loadspec.go). It
// reports throughput and the latency distribution (p50/p90/p99 and max)
// per step, so `cmppower serve`'s throughput and tail latency are
// measurable without external tooling.
//
// Open-loop measurement discipline (DESIGN.md §12): arrivals dispatch
// on an absolute schedule (start + n·interval), not a ticker — tickers
// coalesce at sub-millisecond intervals and silently undershoot high
// target rates — and the reported Duration is the dispatch window only,
// with the post-deadline drain of in-flight requests reported
// separately, so ThroughputRPS is never deflated by drain time.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cmppower/internal/check"
	"cmppower/internal/traffic"
)

// LoadConfig parameterizes one load generation run.
type LoadConfig struct {
	// URL is the target endpoint (for PlaySchedule: the base URL the
	// schedule's endpoint paths are appended to).
	URL string
	// Body is the JSON request body template: Load POSTs it, or sends
	// GETs when it is empty.
	Body []byte
	// Duration is the wall-clock length of each step (default 10 s).
	Duration time.Duration
	// Concurrency is the closed-loop worker count (default 8). Ignored
	// when Ramp is set.
	Concurrency int
	// Rate switches to open-loop mode: arrivals per second, dispatched
	// on an absolute schedule regardless of completions. 0 means closed
	// loop.
	Rate float64
	// Ramp runs one closed-loop step per listed concurrency.
	Ramp []int
	// VaryField, when non-empty, names a top-level JSON field of Body to
	// overwrite with a distinct integer per request — the uncached-path
	// switch (e.g. "seed").
	VaryField string
	// Timeout bounds each request (default 30 s).
	Timeout time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

func (c LoadConfig) withDefaults() (LoadConfig, error) {
	if c.URL == "" {
		return c, fmt.Errorf("loadgen: no URL")
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	for _, n := range c.Ramp {
		if n <= 0 {
			return c, fmt.Errorf("loadgen: ramp step %d", n)
		}
	}
	if !check.In(c.Rate, 0, math.MaxFloat64) {
		return c, check.Fail("Rate", c.Rate, "loadgen: rate %g must be finite and non-negative", c.Rate)
	}
	if c.Rate > 0 && len(c.Ramp) > 0 {
		return c, fmt.Errorf("loadgen: -rate and -ramp are mutually exclusive")
	}
	if c.VaryField != "" && len(c.Body) > 0 && !json.Valid(c.Body) {
		return c, fmt.Errorf("loadgen: vary field needs a JSON body")
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        1024,
				MaxIdleConnsPerHost: 1024,
			},
		}
	}
	return c, nil
}

// BucketStats is one accounting bucket's summary — per client or per
// SLO class — inside a StepResult.
type BucketStats struct {
	// Requests counts completed responses; Errors counts transport
	// failures.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors,omitempty"`
	// Status classes, partitioning Requests (Other is everything not in
	// a named class: 1xx, 3xx, and 4xx other than 429/499).
	Class2xx   int64 `json:"class_2xx"`
	Class429   int64 `json:"class_429,omitempty"`
	Class5xx   int64 `json:"class_5xx,omitempty"`
	Class499   int64 `json:"class_499,omitempty"`
	ClassOther int64 `json:"class_other,omitempty"`
	// TargetRPS and AchievedRPS are filled by schedule playback: the
	// spec's per-client target rate vs the dispatch rate attained.
	TargetRPS   float64 `json:"target_rps,omitempty"`
	AchievedRPS float64 `json:"achieved_rps,omitempty"`
	// Latency percentiles over this bucket's completed requests.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// StepResult is one load step's measurement.
type StepResult struct {
	// Concurrency is the closed-loop worker count (0 in open-loop mode).
	Concurrency int `json:"concurrency,omitempty"`
	// RateRPS is the open-loop target arrival rate (0 in closed loop).
	RateRPS float64 `json:"rate_rps,omitempty"`
	// Duration is the measured dispatch window: open-loop arrivals are
	// only offered inside it, and ThroughputRPS divides by it. The
	// post-deadline wait for in-flight requests is Drain, kept separate
	// so drain time never deflates the reported throughput.
	Duration time.Duration `json:"duration_ns"`
	Drain    time.Duration `json:"drain_ns,omitempty"`
	// Dispatched counts open-loop arrivals actually fired; AchievedRPS
	// is Dispatched over the dispatch window, reported against RateRPS
	// so clock undershoot is visible instead of silent.
	Dispatched  int64   `json:"dispatched,omitempty"`
	AchievedRPS float64 `json:"achieved_rps,omitempty"`
	// Requests counts completed requests; Errors counts transport
	// failures (connection refused, timeout) — HTTP error statuses are
	// counted per code in Status instead.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Dropped counts open-loop arrivals skipped because the in-flight
	// bound was hit (client-side saturation; the latency numbers for
	// completed requests stay honest).
	Dropped int64 `json:"dropped,omitempty"`
	// Status maps HTTP status code → count; the Class* fields summarize
	// it by outcome kind for the CLI table: successes, admission
	// backpressure, server failures, client-closed (499), and a
	// catch-all (ClassOther: 1xx, 3xx, 4xx other than 429/499) so the
	// classes always sum to Requests.
	Status     map[int]int64 `json:"status"`
	Class2xx   int64         `json:"class_2xx"`
	Class429   int64         `json:"class_429,omitempty"`
	Class5xx   int64         `json:"class_5xx,omitempty"`
	Class499   int64         `json:"class_499,omitempty"`
	ClassOther int64         `json:"class_other,omitempty"`
	// Backoffs counts closed-loop worker sleeps after a 429 — honoring
	// the Retry-After header, or the small default backoff when the
	// header is missing (a well-behaved client never spins on 429).
	Backoffs int64 `json:"backoffs,omitempty"`
	// ThroughputRPS is Requests / Duration (dispatch window).
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency percentiles over completed requests.
	P50 time.Duration `json:"p50_ns"`
	P90 time.Duration `json:"p90_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`
	// Clients and Classes break the step down per traffic-spec client
	// and per SLO class (schedule playback only; keys marshal sorted).
	Clients map[string]*BucketStats `json:"clients,omitempty"`
	Classes map[string]*BucketStats `json:"classes,omitempty"`
}

// OK reports whether every completed response was 2xx or 429 and no
// transport errors occurred — the smoke gate: under admission control,
// overload rejection is correct behavior, anything else is not.
func (s *StepResult) OK() bool {
	if s.Errors > 0 {
		return false
	}
	for code, n := range s.Status {
		if n > 0 && code != http.StatusTooManyRequests && (code < 200 || code > 299) {
			return false
		}
	}
	return true
}

// LoadResult is a full loadgen run.
type LoadResult struct {
	Steps []StepResult `json:"steps"`
}

// OK reports whether every step passed the smoke gate.
func (r *LoadResult) OK() bool {
	for i := range r.Steps {
		if !r.Steps[i].OK() {
			return false
		}
	}
	return true
}

// sample group: one bucket's raw measurements.
type samples struct {
	latencies []time.Duration
	status    map[int]int64
	errors    int64
}

func newSamples() *samples {
	return &samples{status: make(map[int]int64)}
}

func (s *samples) record(d time.Duration, status int, err error) {
	if err != nil {
		s.errors++
		return
	}
	s.latencies = append(s.latencies, d)
	s.status[status]++
}

// classify folds a status map into the class counters.
func classify(status map[int]int64) (c2xx, c429, c5xx, c499, other int64) {
	for code, n := range status {
		switch {
		case code >= 200 && code <= 299:
			c2xx += n
		case code == http.StatusTooManyRequests:
			c429 += n
		case code == 499: // client closed request
			c499 += n
		case code >= 500:
			c5xx += n
		default: // 1xx, 3xx, 4xx other than 429/499
			other += n
		}
	}
	return
}

// collector accumulates one step's samples, overall and (when requests
// are tagged) per client and per SLO class.
type collector struct {
	mu       sync.Mutex
	all      *samples
	byClient map[string]*samples
	byClass  map[string]*samples
}

func newCollector() *collector {
	return &collector{all: newSamples()}
}

func (c *collector) record(d time.Duration, status int, err error, client, class string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.all.record(d, status, err)
	if client != "" {
		if c.byClient == nil {
			c.byClient = make(map[string]*samples)
		}
		g, ok := c.byClient[client]
		if !ok {
			g = newSamples()
			c.byClient[client] = g
		}
		g.record(d, status, err)
	}
	if class != "" {
		if c.byClass == nil {
			c.byClass = make(map[string]*samples)
		}
		g, ok := c.byClass[class]
		if !ok {
			g = newSamples()
			c.byClass[class] = g
		}
		g.record(d, status, err)
	}
}

// bucket folds one sample group into its summary.
func bucket(s *samples) *BucketStats {
	b := &BucketStats{
		Requests: int64(len(s.latencies)),
		Errors:   s.errors,
	}
	b.Class2xx, b.Class429, b.Class5xx, b.Class499, b.ClassOther = classify(s.status)
	if len(s.latencies) > 0 {
		sorted := append([]time.Duration(nil), s.latencies...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		b.P50 = percentile(sorted, 0.50)
		b.P99 = percentile(sorted, 0.99)
	}
	return b
}

// result folds the samples into a StepResult. elapsed is the dispatch
// window, not wall time including drain.
func (c *collector) result(elapsed time.Duration) StepResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := StepResult{
		Duration: elapsed,
		Requests: int64(len(c.all.latencies)),
		Errors:   c.all.errors,
		Status:   c.all.status,
	}
	if elapsed > 0 {
		s.ThroughputRPS = float64(s.Requests) / elapsed.Seconds()
	}
	s.Class2xx, s.Class429, s.Class5xx, s.Class499, s.ClassOther = classify(c.all.status)
	if len(c.all.latencies) > 0 {
		sorted := append([]time.Duration(nil), c.all.latencies...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		s.P50 = percentile(sorted, 0.50)
		s.P90 = percentile(sorted, 0.90)
		s.P99 = percentile(sorted, 0.99)
		s.Max = sorted[len(sorted)-1]
	}
	for name, g := range c.byClient {
		if s.Clients == nil {
			s.Clients = make(map[string]*BucketStats, len(c.byClient))
		}
		s.Clients[name] = bucket(g)
	}
	for name, g := range c.byClass {
		if s.Classes == nil {
			s.Classes = make(map[string]*BucketStats, len(c.byClass))
		}
		s.Classes[name] = bucket(g)
	}
	return s
}

// percentile reads the nearest-rank percentile from a sorted sample.
func percentile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// bodyFactory produces per-request bodies: the template verbatim, or
// with VaryField rewritten to a fresh integer each call.
func bodyFactory(cfg LoadConfig) (func() []byte, error) {
	if cfg.VaryField == "" || len(cfg.Body) == 0 {
		return func() []byte { return cfg.Body }, nil
	}
	var tmpl map[string]json.RawMessage
	if err := json.Unmarshal(cfg.Body, &tmpl); err != nil {
		return nil, fmt.Errorf("loadgen: vary body: %w", err)
	}
	var n atomic.Int64
	return func() []byte {
		next := n.Add(1)
		m := make(map[string]json.RawMessage, len(tmpl)+1)
		for k, v := range tmpl {
			m[k] = v
		}
		m[cfg.VaryField] = json.RawMessage(strconv.FormatInt(next, 10))
		b, err := json.Marshal(m)
		if err != nil {
			return cfg.Body
		}
		return b
	}, nil
}

// Load runs the configured load generation and returns per-step results.
func Load(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	nextBody, err := bodyFactory(cfg)
	if err != nil {
		return nil, err
	}
	method := http.MethodGet
	if len(cfg.Body) > 0 {
		method = http.MethodPost
	}
	out := &LoadResult{}
	if cfg.Rate > 0 {
		step, err := openLoop(ctx, cfg, method, nextBody)
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, step)
		return out, nil
	}
	steps := cfg.Ramp
	if len(steps) == 0 {
		steps = []int{cfg.Concurrency}
	}
	for _, conc := range steps {
		step, err := closedLoop(ctx, cfg, method, conc, nextBody)
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, step)
		if ctx.Err() != nil {
			break
		}
	}
	return out, nil
}

// fire issues one request at url and records it under (client, class).
// Tagged requests carry the traffic headers so the server and router
// can label their per-class metrics. It returns the response status and
// any Retry-After hint (0 when absent) so closed-loop workers can honor
// backpressure.
func fire(ctx context.Context, cfg LoadConfig, col *collector, method, url string, body []byte, client, class string) (int, time.Duration) {
	rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, method, url, bytes.NewReader(body))
	if err != nil {
		col.record(0, 0, err, client, class)
		return 0, 0
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	if client != "" {
		req.Header.Set(traffic.HeaderClient, client)
	}
	if class != "" {
		req.Header.Set(traffic.HeaderClass, class)
	}
	start := time.Now()
	resp, err := cfg.Client.Do(req)
	d := time.Since(start)
	if err != nil {
		// The run deadline expiring mid-request is the harness stopping,
		// not a server failure.
		if ctx.Err() != nil {
			return 0, 0
		}
		col.record(d, 0, err, client, class)
		return 0, 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	col.record(d, resp.StatusCode, nil, client, class)
	var retryAfter time.Duration
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	return resp.StatusCode, retryAfter
}

// default429Backoff is the closed-loop sleep after a 429 whose
// Retry-After header is missing or zero: without it a worker would spin
// at full speed against the admission queue, which no well-behaved
// client does.
const default429Backoff = 50 * time.Millisecond

// closedLoop runs conc workers for cfg.Duration, each firing
// back-to-back requests. Workers behave like well-behaved clients: a
// 429 puts the worker to sleep for the Retry-After duration — or the
// small default backoff when the header is absent — instead of
// hammering the admission queue, so under overload the measured arrival
// rate self-regulates the way real backed-off clients would. Open-loop
// mode deliberately does not back off: its arrival process models an
// external population the server cannot slow down.
func closedLoop(ctx context.Context, cfg LoadConfig, method string, conc int, nextBody func() []byte) (StepResult, error) {
	col := newCollector()
	stepCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()
	var backoffs atomic.Int64
	var wg sync.WaitGroup
	wg.Add(conc)
	for w := 0; w < conc; w++ {
		go func() {
			defer wg.Done()
			for stepCtx.Err() == nil {
				status, retryAfter := fire(stepCtx, cfg, col, method, cfg.URL, nextBody(), "", "")
				if status == http.StatusTooManyRequests {
					if retryAfter <= 0 {
						retryAfter = default429Backoff
					}
					backoffs.Add(1)
					select {
					case <-stepCtx.Done():
					case <-time.After(retryAfter):
					}
				}
			}
		}()
	}
	wg.Wait()
	step := col.result(time.Since(start))
	step.Concurrency = conc
	step.Backoffs = backoffs.Load()
	return step, ctx.Err()
}

// openLoop dispatches arrivals on an absolute schedule (start +
// n·interval) for cfg.Duration. A ticker would coalesce ticks at
// sub-millisecond intervals and silently undershoot the target rate;
// the absolute clock instead catches up after stalls by firing overdue
// arrivals back to back, and AchievedRPS reports what was actually
// offered. The in-flight population is bounded (4096) so a stalled
// server saturates the client visibly (Dropped) instead of exhausting
// its memory.
func openLoop(ctx context.Context, cfg LoadConfig, method string, nextBody func() []byte) (StepResult, error) {
	col := newCollector()
	stepCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	sem := make(chan struct{}, 4096)
	var dropped, dispatched int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for n := int64(0); ; n++ {
		next := start.Add(time.Duration(n) * interval)
		if !next.Before(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			select {
			case <-stepCtx.Done():
			case <-time.After(d):
			}
		}
		if stepCtx.Err() != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		default:
			dropped++
			continue
		}
		dispatched++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fire(stepCtx, cfg, col, method, cfg.URL, nextBody(), "", "")
		}()
	}
	// The dispatch window closes here; everything after is drain.
	window := time.Since(start)
	drainStart := time.Now()
	wg.Wait()
	step := col.result(window)
	step.Drain = time.Since(drainStart)
	step.RateRPS = cfg.Rate
	step.Dropped = dropped
	step.Dispatched = dispatched
	if window > 0 {
		step.AchievedRPS = float64(dispatched) / window.Seconds()
	}
	return step, ctx.Err()
}

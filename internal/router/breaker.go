// Per-shard circuit breakers, the global retry budget, and the per-shard
// latency quantile tracker — the three mechanisms that keep the router's
// own resilience features from amplifying an outage:
//
//   - The breaker stops sending to a shard that keeps failing (consecutive
//     -failure trip), then lets exactly one probe through after a cooldown
//     (half-open) before either closing again or re-opening.
//   - The retry budget caps extra attempts (retries + hedges) to a small
//     fraction of normal traffic, so a dead fleet sees a trickle of
//     probes, not a retry storm N× the offered load.
//   - The latency tracker estimates each shard's tail so hedging fires
//     only when this shard is slower than its own recent history.

package router

import (
	"slices"
	"sync"
	"time"
)

// breakerState is the classic three-state machine.
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String implements fmt.Stringer.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is one shard's circuit breaker. Guarded by the owning Router's
// fleet mutex — the router mutates it at pick and record time, both of
// which already hold the lock.
type breaker struct {
	state       breakerState
	consecFails int
	threshold   int
	openedAt    time.Time
	probing     bool
}

// eligible reports whether this shard may appear in a routing ranking,
// transitioning open → half-open once the cooldown has passed (a
// time-based, idempotent move). It never consumes the half-open probe
// slot — being ranked is not being attempted; acquire does that at
// launch time.
func (b *breaker) eligible(now time.Time, cooldown time.Duration) bool {
	if b.state == breakerOpen {
		if now.Sub(b.openedAt) < cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = false
	}
	if b.state == breakerHalfOpen {
		return !b.probing
	}
	return true
}

// acquire claims the right to send one attempt. Closed always admits;
// half-open admits exactly one probe at a time; open admits none.
func (b *breaker) acquire() bool {
	switch b.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// release returns an acquired probe slot without a verdict — the attempt
// was cancelled because another shard already answered, which says
// nothing about this shard's health.
func (b *breaker) release() {
	b.probing = false
}

// record folds one attempt outcome in; it returns true when this outcome
// tripped the breaker open (for the trip counter).
func (b *breaker) record(ok bool, now time.Time) (tripped bool) {
	if ok {
		b.state = breakerClosed
		b.consecFails = 0
		b.probing = false
		return false
	}
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: straight back to open, fresh cooldown.
		b.state = breakerOpen
		b.openedAt = now
		b.probing = false
		return true
	default:
		b.consecFails++
		if b.state == breakerClosed && b.consecFails >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
			return true
		}
	}
	return false
}

// reset returns the breaker to closed (respawned shard, fresh history).
func (b *breaker) reset() {
	b.state = breakerClosed
	b.consecFails = 0
	b.probing = false
}

// retryBudget is the global token bucket bounding extra attempts. Every
// incoming request deposits ratio tokens (capped); every retry or hedge
// withdraws one whole token. With ratio 0.1 the fleet can spend at most
// one extra attempt per ten requests in steady state — an outage cannot
// be amplified past that, no matter how many clients retry.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	cap    float64
	ratio  float64
}

func newRetryBudget(ratio, capacity float64) *retryBudget {
	// Start full so a cold router can still hedge its first requests.
	return &retryBudget{tokens: capacity, cap: capacity, ratio: ratio}
}

// deposit credits one normal request's worth of budget.
func (rb *retryBudget) deposit() {
	rb.mu.Lock()
	rb.tokens += rb.ratio
	if rb.tokens > rb.cap {
		rb.tokens = rb.cap
	}
	rb.mu.Unlock()
}

// withdraw takes one token for an extra attempt; false means the budget
// is exhausted and the attempt must not be made.
func (rb *retryBudget) withdraw() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}

// latTracker keeps a ring of one shard's recent request latencies and
// answers quantile queries over it. Queries read a sorted snapshot of
// the ring, re-taken once every len/16 observations (every observation
// for rings under 16): the hedge delay tracks the recent tail without
// a 256-sample sort on every request.
type latTracker struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
	full    bool
	prior   time.Duration

	sorted  []time.Duration // sorted snapshot of samples
	stale   int             // observations since sorted was taken
	refresh int             // stale count that forces a new snapshot
}

func newLatTracker(size int, prior time.Duration) *latTracker {
	return &latTracker{samples: make([]time.Duration, size), prior: prior, refresh: max(1, size/16)}
}

// observe folds one completed-request latency in.
func (t *latTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.samples[t.next] = d
	t.next++
	if t.next == len(t.samples) {
		t.next = 0
		t.full = true
	}
	t.stale++
	t.mu.Unlock()
}

// quantile returns the q-quantile of the recent window, or the prior
// while the window is empty (a cold shard hedges on the prior).
func (t *latTracker) quantile(q float64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.full {
		n = len(t.samples)
	}
	if n == 0 {
		return t.prior
	}
	if len(t.sorted) == 0 || t.stale >= t.refresh {
		t.sorted = append(t.sorted[:0], t.samples[:n]...)
		slices.Sort(t.sorted)
		t.stale = 0
	}
	n = len(t.sorted)
	idx := int(q*float64(n)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return t.sorted[idx]
}

package experiment

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"cmppower/internal/dvfs"
	"cmppower/internal/obs"
)

// memoKey is the full identity of one simulated run: two runs with equal
// keys produce bit-identical Measurements, so a cached result can stand
// in for a re-simulation. Everything that feeds the simulator or the
// power/thermal evaluation is part of the key — the application, the
// active and physical core counts, the exact operating point, the
// workload seed and scale, the simulator mode flags, the DTM controller
// configuration of a governed run, and a digest of the fault-injection
// configuration.
type memoKey struct {
	app        string
	n          int
	freq       float64
	volt       float64
	seed       uint64
	scale      float64
	totalCores int
	sysDVFS    bool
	prefetch   bool
	// dtm is a governed run's resolved controller configuration, which
	// is never the zero value (resolve substitutes the defaults); plain
	// runs, profiling runs included, leave it zero.
	dtm    DTMConfig
	faults string
	// scenario is the rig's scenario digest: empty for baseline-equivalent
	// scenarios (so every build of the paper's chip shares entries), the
	// full content digest otherwise — two different chips can never
	// collide.
	scenario string
}

// memoKeyFor builds the cache key for one run on this rig: a run
// governed by DTM configuration dc, or a plain run when dc is nil.
func (r *Rig) memoKeyFor(app string, n int, p dvfs.OperatingPoint, seed uint64, dc *DTMConfig) memoKey {
	k := memoKey{
		app: app, n: n, freq: p.Freq, volt: p.Volt,
		seed: seed, scale: r.Scale, totalCores: r.TotalCores,
		sysDVFS: r.ScaleMemoryWithChip, prefetch: r.Prefetch,
		scenario: r.scenarioDigest,
	}
	if dc != nil {
		k.dtm = *dc
	}
	if r.Faults != nil {
		// Config digest, not schedule digest: the key must be computable
		// before the run. Only ever consulted with injection disabled (see
		// memoizable), where the digest is constant.
		k.faults = fmt.Sprintf("%+v", r.Faults.Config())
	}
	return k
}

// memoizable reports whether runs on this rig are a pure function of
// their memoKey. Active fault injection makes them order-dependent —
// every run advances the injector's streams — so such runs always
// re-simulate.
func (r *Rig) memoizable() bool {
	return r.Faults == nil || !r.Faults.Config().Enabled()
}

// DefaultMemoCapacity bounds EnableMemo's cache. It is sized so that no
// in-repo sweep ever evicts (a full fig3+fig4 campaign touches a few
// hundred distinct keys), keeping the memo hit/miss split deterministic
// across worker counts; the bound exists for long-lived processes — a
// serving process would otherwise grow the cache without limit.
const DefaultMemoCapacity = 8192

// EnableMemo attaches a measurement memo cache to the rig (idempotent),
// bounded at DefaultMemoCapacity entries. Clones made afterwards share
// it, which is how a parallel sweep dedupes the single-core baseline and
// nominal profiling runs that Scenario I and Scenario II repeat. The
// cache holds successful Measurements only; failures are never cached,
// so retries always re-simulate.
func (r *Rig) EnableMemo() { r.EnableMemoBounded(DefaultMemoCapacity) }

// EnableMemoBounded is EnableMemo with an explicit LRU capacity
// (capacity <= 0 means DefaultMemoCapacity). Long-lived processes — the
// HTTP server above all — use a capacity matched to their memory budget;
// least-recently-used completed entries are evicted once the bound is
// reached, and an evicted run simply re-simulates on next request.
func (r *Rig) EnableMemoBounded(capacity int) {
	if r.memo == nil {
		r.memo = newMemoCache(capacity)
	}
}

// MemoStats reports the memo cache's traffic.
type MemoStats struct {
	// Hits counts runs served from the cache instead of re-simulated.
	Hits int64
	// Misses counts runs that were simulated and stored.
	Misses int64
	// Evictions counts completed entries dropped by the LRU bound.
	Evictions int64
	// Entries is the number of distinct cached measurements.
	Entries int
	// Capacity is the LRU bound on Entries.
	Capacity int
}

// MemoStats returns the cache counters (zero without EnableMemo).
func (r *Rig) MemoStats() MemoStats {
	if r.memo == nil {
		return MemoStats{}
	}
	return r.memo.stats()
}

// memoEntry is one in-flight or completed cached run. ready is closed
// once m/err are final; elem links the entry into the LRU list once it
// has completed successfully (in-flight entries are never evicted). A
// governed run's m carries its DTM stats.
type memoEntry struct {
	key   memoKey
	ready chan struct{}
	m     *Measurement
	err   error
	elem  *list.Element
}

// memoCache is a concurrency-safe, single-flight measurement cache with
// an LRU bound: concurrent requests for the same key simulate once and
// share the result, each caller receiving its own copy, and the
// least-recently-used completed entries are evicted beyond capacity.
type memoCache struct {
	mu        sync.Mutex
	capacity  int
	m         map[memoKey]*memoEntry
	ll        *list.List // completed entries, front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

func newMemoCache(capacity int) *memoCache {
	if capacity <= 0 {
		capacity = DefaultMemoCapacity
	}
	return &memoCache{capacity: capacity, m: make(map[memoKey]*memoEntry), ll: list.New()}
}

func (c *memoCache) stats() MemoStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return MemoStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.m), Capacity: c.capacity}
}

// insert links a completed entry into the LRU and evicts past capacity.
// Eviction order depends on completion order across workers, so the
// eviction counter is published volatile; under the default capacity no
// in-repo sweep evicts and the deterministic hit/miss split is unchanged.
func (c *memoCache) insert(e *memoEntry, reg *obs.Registry) {
	c.mu.Lock()
	e.elem = c.ll.PushFront(e)
	var evicted int64
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		v := back.Value.(*memoEntry)
		c.ll.Remove(back)
		delete(c.m, v.key)
		v.elem = nil
		evicted++
	}
	c.evictions += evicted
	entries := len(c.m)
	c.mu.Unlock()
	if evicted > 0 {
		reg.VolatileCounter("memo_evictions_total").Add(evicted)
	}
	reg.VolatileGauge("memo_entries").Set(float64(entries))
}

// do returns the cached measurement for k, computing it via compute on
// first request. Duplicate concurrent requests block until the first
// completes (or their own context cancels). Errors are propagated to
// every waiter but never cached: the entry is removed so a later request
// re-simulates. Traffic is mirrored into reg (nil is free): the split is
// deterministic across worker counts because misses are exactly the
// distinct keys requested and hits the remainder, regardless of which
// worker computed what — provided the LRU bound never bites (see
// DefaultMemoCapacity).
func (c *memoCache) do(ctx context.Context, k memoKey, reg *obs.Registry, compute func() (*Measurement, error)) (*Measurement, error) {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			return nil, e.err
		}
		c.mu.Lock()
		c.hits++
		if e.elem != nil {
			c.ll.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		reg.Counter("memo_hits_total").Add(1)
		return e.m.clone(), nil
	}
	e := &memoEntry{key: k, ready: make(chan struct{})}
	c.m[k] = e
	c.misses++
	c.mu.Unlock()
	reg.Counter("memo_misses_total").Add(1)

	m, err := compute()
	if err != nil {
		e.err = err
		c.mu.Lock()
		delete(c.m, k)
		c.mu.Unlock()
		close(e.ready)
		return nil, err
	}
	// The cache keeps a pristine copy; the caller gets its own.
	e.m = m.clone()
	c.insert(e, reg)
	close(e.ready)
	return m, nil
}

// clone returns a deep copy of the measurement so cached values can never
// alias a caller's result.
func (m *Measurement) clone() *Measurement {
	c := *m
	if m.DTM != nil {
		dtm := *m.DTM
		c.DTM = &dtm
	}
	return &c
}

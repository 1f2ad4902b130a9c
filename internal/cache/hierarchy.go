package cache

import (
	"fmt"
	"math/bits"

	"cmppower/internal/bus"
	"cmppower/internal/check"
	"cmppower/internal/mem"
)

// Config describes the full hierarchy (defaults mirror paper Table 1).
type Config struct {
	NCores         int
	L1             Geometry
	L1HitCycles    float64 // L1 round trip
	L2             Geometry
	L2RTCycles     float64 // L2 round trip as seen by a core
	BusCyclesPerTx float64 // snooping-bus occupancy per transaction
	FreqHz         float64 // chip frequency: converts cycles <-> seconds
	// PrefetchNextLine enables a per-core next-line prefetcher: every
	// demand L1 miss also fetches the following line off the critical
	// path. Helps streaming access patterns; consumes bus and memory
	// bandwidth.
	PrefetchNextLine bool
	// Fault, when non-nil, injects transient ECC-style errors: the hook is
	// consulted once per data access and a non-zero return is the retry
	// penalty in cycles charged to that access (the data is corrected, so
	// no state changes — only time and the ECCRetries counters).
	Fault FaultHook
}

// FaultHook injects transient, ECC-correctable errors into the hierarchy.
// Implementations must be deterministic for reproducible runs; see
// internal/faults for the canonical injector.
type FaultHook interface {
	// CacheRetryCycles returns the retry penalty (cycles) for one access
	// by core to lineAddr, or 0 for a fault-free access.
	CacheRetryCycles(core int, lineAddr uint64) float64
}

// DefaultConfig returns the paper's Table 1 hierarchy for n cores at
// frequency freqHz: 64 KB / 64 B / 2-way L1s with a 2-cycle round trip and
// a shared 4 MB / 128 B / 8-way L2 with a 12-cycle round trip.
func DefaultConfig(n int, freqHz float64) Config {
	return Config{
		NCores:         n,
		L1:             Geometry{SizeBytes: 64 << 10, LineBytes: 64, Ways: 2},
		L1HitCycles:    2,
		L2:             Geometry{SizeBytes: 4 << 20, LineBytes: 128, Ways: 8},
		L2RTCycles:     12,
		BusCyclesPerTx: 3,
		FreqHz:         freqHz,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NCores < 1 {
		return fmt.Errorf("cache: NCores %d", c.NCores)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("cache: L1: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("cache: L2: %w", err)
	}
	if c.L2.LineBytes < c.L1.LineBytes {
		return fmt.Errorf("cache: L2 line %d smaller than L1 line %d", c.L2.LineBytes, c.L1.LineBytes)
	}
	switch {
	case !(c.L1HitCycles > 0 && check.Finite(c.L1HitCycles)):
		return check.Fail("L1HitCycles", c.L1HitCycles, "cache: L1 hit cycles %g must be positive and finite", c.L1HitCycles)
	case !(c.L2RTCycles > 0 && check.Finite(c.L2RTCycles)):
		return check.Fail("L2RTCycles", c.L2RTCycles, "cache: L2 round trip %g must be positive and finite", c.L2RTCycles)
	case !(c.BusCyclesPerTx > 0 && check.Finite(c.BusCyclesPerTx)):
		return check.Fail("BusCyclesPerTx", c.BusCyclesPerTx, "cache: bus cycles per transaction %g must be positive and finite", c.BusCyclesPerTx)
	case !(c.FreqHz > 0 && check.Finite(c.FreqHz)):
		return check.Fail("FreqHz", c.FreqHz, "cache: frequency %g must be positive and finite", c.FreqHz)
	}
	return nil
}

// Stats aggregates hierarchy activity for performance analysis and power
// accounting.
type Stats struct {
	L1DAccess []int64 // per core
	L1DMiss   []int64 // per core
	L2Access  int64
	L2Miss    int64
	Upgrades  int64 // S->M bus upgrades
	Invals    int64 // lines invalidated by remote writes
	C2C       int64 // dirty cache-to-cache transfers
	WBToL2    int64 // L1 dirty writebacks
	WBToMem   int64 // L2 dirty writebacks
	Prefetch  int64 // next-line prefetches issued
	// ECCRetries counts injected transient errors that were corrected by a
	// retry; ECCRetryCycles is their total latency cost.
	ECCRetries     int64
	ECCRetryCycles float64
}

// Hierarchy is the shared-memory system of one chip at one operating point.
type Hierarchy struct {
	cfg Config
	// l1 is every core's L1 in one set-interleaved bank: set s is the row
	// l1[s*stride : (s+1)*stride], which holds core 0's ways, then core
	// 1's, and so on. A coherence walk probes every core at one set, so
	// interleaving turns n scattered reads into one sequential walk. The
	// bank geometry lives here, next to the backing, so the hot path
	// reaches a row without going through a per-core array.
	l1      []uint64
	l1Shift uint   // log2 of the L1 line size
	l1Mask  uint64 // set count - 1, used when the count is a power of two
	l1Sets  uint64
	l1Pow2  bool
	ways    int  // L1 ways per core
	stride  int  // row length: ways * NCores
	l2Shift uint // log2 of L1 lines per L2 line
	l2      *Array
	bus     *bus.Bus
	dram    *mem.DRAM
	st      Stats
	// l1buf and l2buf are the line buffers under l1 and l2, taken from
	// the free lists (takeLines) and handed back by Release.
	l1buf, l2buf *[]uint64
	// tagged tracks prefetched-but-not-yet-used lines per core, so a
	// demand hit on a prefetched line keeps the stream ahead (tagged
	// prefetching). Only allocated when prefetching is enabled.
	tagged []map[uint64]struct{}
}

// New builds the hierarchy. The DRAM channel is owned by the caller so
// several components can share one channel model.
func New(cfg Config, dram *mem.DRAM) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dram == nil {
		return nil, fmt.Errorf("cache: nil DRAM")
	}
	b, err := bus.New(cfg.BusCyclesPerTx)
	if err != nil {
		return nil, err
	}
	sets := uint64(cfg.L1.Sets())
	h := &Hierarchy{
		cfg:     cfg,
		l1Shift: uint(bits.TrailingZeros(uint(cfg.L1.LineBytes))),
		l1Mask:  sets - 1,
		l1Sets:  sets,
		l1Pow2:  sets&(sets-1) == 0,
		ways:    cfg.L1.Ways,
		stride:  cfg.L1.Ways * cfg.NCores,
		l2Shift: uint(bits.TrailingZeros(uint(cfg.L2.LineBytes / cfg.L1.LineBytes))),
		bus:     b,
		dram:    dram,
	}
	h.l1buf = takeLines(int(sets) * h.stride)
	h.l1 = *h.l1buf
	h.l2buf = takeLines(cfg.L2.Sets() * cfg.L2.Ways)
	h.l2 = newArray(cfg.L2, *h.l2buf)
	h.st.L1DAccess = make([]int64, cfg.NCores)
	h.st.L1DMiss = make([]int64, cfg.NCores)
	if cfg.PrefetchNextLine {
		h.tagged = make([]map[uint64]struct{}, cfg.NCores)
		for i := range h.tagged {
			h.tagged[i] = make(map[uint64]struct{})
		}
	}
	return h, nil
}

// Release hands the hierarchy's line buffers back to the free lists for
// the next hierarchy of the same shape. Call it only once everything that
// reads the lines (LineDigest, the caller's activity accounting) is done:
// the hierarchy is unusable afterwards. The L1 bank and the L2 are
// dropped, so a later access panics instead of reading a buffer another
// run now owns. The counters stay readable, and releasing twice is a
// no-op.
func (h *Hierarchy) Release() {
	if h.l1buf == nil {
		return
	}
	putLines(h.l1buf)
	putLines(h.l2buf)
	h.l1buf, h.l2buf = nil, nil
	h.l1, h.l2 = nil, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a snapshot of the counters.
func (h *Hierarchy) Stats() Stats {
	s := h.st
	s.L1DAccess = append([]int64(nil), h.st.L1DAccess...)
	s.L1DMiss = append([]int64(nil), h.st.L1DMiss...)
	return s
}

// L1DAccesses returns core's cumulative L1-D access count without
// snapshotting the full Stats record; the engine's incremental activity
// sampler reads it once per sample interval.
func (h *Hierarchy) L1DAccesses(core int) int64 { return h.st.L1DAccess[core] }

// L2Accesses returns the cumulative L2 access count (same role as
// L1DAccesses).
func (h *Hierarchy) L2Accesses() int64 { return h.st.L2Access }

// Bus exposes the snooping bus (for utilization statistics).
func (h *Hierarchy) Bus() *bus.Bus { return h.bus }

// LineDigest folds every packed cache-line word — the whole L1 bank and
// the L2 — into one FNV-1a value. Two hierarchies that executed the same
// access sequence digest identically, so tests pin the exact cache state
// through it: the traffic digest and the recycled-line-buffer test.
func (h *Hierarchy) LineDigest() uint64 {
	const prime = 1099511628211
	d := uint64(14695981039346656037)
	for _, words := range [2][]uint64{h.l1, h.l2.lines} {
		for _, w := range words {
			d ^= w
			d *= prime
		}
	}
	return d
}

// Access performs a data access by core on behalf of the timing model.
// now is the core's current absolute cycle; the return value is the cycle
// at which the access completes. Coherence state changes take effect at
// request time (a standard approximation at this fidelity level).
//
// Every step on the L1 bank works on la's row directly: the tag probe
// refreshes LRU on hits only, and each walk over the other cores visits
// the row once, split around the requester's own ways.
func (h *Hierarchy) Access(core int, addr uint64, write bool, now float64) float64 {
	la := addr >> h.l1Shift
	h.st.L1DAccess[core]++
	if h.cfg.Fault != nil {
		// Transient ECC error: the access is retried after correction, so
		// the whole transaction starts late by the retry penalty.
		if pen := h.cfg.Fault.CacheRetryCycles(core, la); pen > 0 {
			h.st.ECCRetries++
			h.st.ECCRetryCycles += pen
			now += pen
		}
	}

	row, probe := h.l1row(la), la<<8
	base := core * h.ways
	own := row[base : base+h.ways]
	if w := wayOf(own, probe); w >= 0 {
		// L1 hit. The line moves to the most-recent way, and a write
		// stores its new state there before anything else runs: with a
		// one-set L1 or L2, the prefetch below may move or
		// back-invalidate the line, and must see the state the write
		// left.
		k := own[w]
		st := State(k & 0xFF)
		if write {
			k = probe | uint64(Modified)
		}
		toFront(own, w, k)
		// Tagged prefetching: the first demand hit on a prefetched line
		// pulls the next line, keeping a stream one line ahead.
		if h.tagged != nil {
			if _, ok := h.tagged[core][la]; ok {
				delete(h.tagged[core], la)
				h.prefetch(core, la+1, now)
			}
		}
		if !write || st != Shared {
			// Reads, and writes to an owned line (E->M is silent).
			return now + h.cfg.L1HitCycles
		}
		// Shared: bus upgrade, invalidating the other copies. Every one
		// is Shared and clean, because a Shared copy rules out an owner
		// (CheckCoherence invariant 2).
		start := h.bus.Acquire(now)
		h.st.Upgrades++
		h.invalidateOthers(row, base, probe)
		return start + h.cfg.L1HitCycles
	}

	// L1 miss: arbitrate for the bus after the tag probe.
	h.st.L1DMiss[core]++
	start := h.bus.Acquire(now + h.cfg.L1HitCycles)
	h.st.L2Access++
	l2la := h.l2.LineAddr(addr)
	l2set, l2way, inL2 := h.l2.slot(l2la)
	var done float64
	shared := false
	if !inL2 {
		// The L2 lacks the line, so by inclusion (CheckCoherence
		// invariant 3) no L1 holds it and the snoop would find nothing.
		// Off-chip fetch: the request leaves after the L2 tag probe
		// (half the round trip), waits for the channel, and returns
		// through the L2, which takes the line in the way the probe
		// found.
		h.st.L2Miss++
		half := h.cfg.L2RTCycles / 2
		issueSec := (start + half) / h.cfg.FreqHz
		doneSec := h.dram.Access(issueSec)
		done = doneSec*h.cfg.FreqHz + half
		h.evictL2(insertAt(l2set, l2way, false, l2la<<8|uint64(Shared)))
	} else {
		// Snoop the other L1s. A write invalidates every copy. A read
		// stops at the first copy: an M or E holder is by SWMR the only
		// holder, and once one S copy is seen any others are S too and
		// invisible to the fill, which only asks whether a copy exists.
		// Either way a dirty copy is flushed through the L2 to the
		// requester (a cache-to-cache transfer) instead of being read
		// from it.
		var dirty bool
		if write {
			dirty = h.invalidateOthers(row, base, probe)
		} else {
			shared, dirty = share(row[:base], probe)
			if !shared {
				shared, dirty = share(row[base+h.ways:], probe)
			}
		}
		word := l2set[l2way]
		if dirty {
			// Dirty cache-to-cache transfer through the L2 (owner
			// flushes, requester reads): one L2 round trip.
			h.st.C2C++
			h.st.WBToL2++
			word = l2la<<8 | uint64(Modified)
		}
		toFront(l2set, l2way, word)
		done = start + h.cfg.L2RTCycles
	}

	newState := Shared
	if write {
		newState = Modified
	} else if !shared {
		newState = Exclusive
	}
	// Fill the requested line. The tag probe above just missed, and
	// nothing since has installed a line into this core's ways
	// (back-invalidations only clear them), so the line is known absent.
	if victim := fill(own, probe|uint64(newState)); State(victim&0xFF) == Modified {
		// Buffered dirty writeback: drains right after the current bus
		// tenure, consuming bus and L2 bandwidth without stalling the
		// requester.
		h.st.WBToL2++
		h.st.L2Access++
		h.bus.Acquire(start)
		h.installL2((victim >> 8) >> h.l2Shift)
	}
	if h.cfg.PrefetchNextLine {
		// Issue right behind the demand transaction; reserving the bus at
		// the (future) fill-completion time would stall other requesters.
		h.prefetch(core, la+1, start)
	}
	return done
}

// l1row returns the bank row holding every core's ways for la's set.
func (h *Hierarchy) l1row(la uint64) []uint64 {
	var idx uint64
	if h.l1Pow2 {
		idx = la & h.l1Mask
	} else {
		idx = la % h.l1Sets
	}
	start := int(idx) * h.stride
	return h.l1[start : start+h.stride]
}

// holds reports whether packed word k holds probe's line (probe is a
// line address shifted into tag position, state byte zero). The row walks
// run it on every word, and a second compare per word measured slower,
// so it is one: k^probe is the state byte, 1 to 3, exactly when the tags
// match and k is valid. An empty way (k == 0) yields probe, which is 0
// only for line 0 and then wraps to the largest value on the subtraction,
// and a different tag yields at least 0x100.
func holds(k, probe uint64) bool { return (k^probe)-1 < 0xFF }

// wayOf returns the way of ways holding probe's line, or -1.
func wayOf(ways []uint64, probe uint64) int {
	for w, k := range ways {
		if holds(k, probe) {
			return w
		}
	}
	return -1
}

// fill installs word, whose line is known absent, at the most-recent way
// of set: into the first empty way, else over the last (least-recent)
// way. It returns the displaced word, 0 when a way was empty.
func fill(set []uint64, word uint64) (victim uint64) {
	pos := len(set) - 1
	for i, k := range set {
		if k == 0 {
			pos = i
			break
		}
	}
	victim = set[pos]
	toFront(set, pos, word)
	return victim
}

// invalidateOthers drops probe's line from every core's ways in row but
// those at base, the requester's, counting each copy in Invals. It
// reports whether a dropped copy was Modified.
func (h *Hierarchy) invalidateOthers(row []uint64, base int, probe uint64) (dirty bool) {
	lo, dlo := invalidate(row[:base], probe)
	hi, dhi := invalidate(row[base+h.ways:], probe)
	h.st.Invals += lo + hi
	return dlo || dhi
}

// invalidate drops every copy of probe's line in part, a stretch of an
// L1 row. It returns how many it dropped and whether one was Modified.
func invalidate(part []uint64, probe uint64) (n int64, dirty bool) {
	for w, k := range part {
		if holds(k, probe) {
			part[w] = 0
			n++
			dirty = dirty || State(k&0xFF) == Modified
		}
	}
	return n, dirty
}

// share finds the first copy of probe's line in part and downgrades it
// to Shared. It reports whether it found one and whether that copy was
// Modified.
func share(part []uint64, probe uint64) (found, dirty bool) {
	if w := wayOf(part, probe); w >= 0 {
		st := State(part[w] & 0xFF)
		part[w] = probe | uint64(Shared)
		return true, st == Modified
	}
	return false, false
}

// prefetch pulls the given L1 line into core's cache off the critical
// path. It is conservative with coherence: it aborts if any remote cache
// holds the line dirty, and installs in Shared, downgrading a remote
// Exclusive holder. As on the demand path, a line the L2 lacks is in no
// L1, so only a line the L2 holds needs the walk.
func (h *Hierarchy) prefetch(core int, la uint64, now float64) {
	row, probe := h.l1row(la), la<<8
	base := core * h.ways
	own := row[base : base+h.ways]
	l2la := la >> h.l2Shift
	l2set, l2way, inL2 := h.l2.slot(l2la)
	if inL2 && (wayOf(own, probe) >= 0 || !downgrade(row[:base], probe) || !downgrade(row[base+h.ways:], probe)) {
		return
	}
	start := h.bus.Acquire(now)
	h.st.Prefetch++
	h.st.L2Access++
	if inL2 {
		toFront(l2set, l2way, l2set[l2way])
	} else {
		h.st.L2Miss++
		// Consume memory bandwidth; the fill is not waited on.
		h.dram.Access((start + h.cfg.L2RTCycles/2) / h.cfg.FreqHz)
		h.evictL2(insertAt(l2set, l2way, false, l2la<<8|uint64(Shared)))
	}
	if victim := fill(own, probe|uint64(Shared)); State(victim&0xFF) == Modified {
		h.st.WBToL2++
		h.st.L2Access++
		h.installL2((victim >> 8) >> h.l2Shift)
	}
	if h.tagged != nil {
		if len(h.tagged[core]) > 4096 {
			// Bound stale entries (evicted before use).
			h.tagged[core] = make(map[uint64]struct{})
		}
		h.tagged[core][la] = struct{}{}
	}
}

// downgrade turns the Exclusive copies of probe's line in part to Shared
// for a prefetch. It stops at a Modified copy and reports false then: a
// speculative fill does not disturb a dirty owner.
func downgrade(part []uint64, probe uint64) bool {
	for w, k := range part {
		if holds(k, probe) {
			switch State(k & 0xFF) {
			case Modified:
				return false
			case Exclusive:
				part[w] = probe | uint64(Shared)
			}
		}
	}
	return true
}

// installL2 inserts a line into the L2 in Shared and enforces inclusion
// for the line it displaces (evictL2).
func (h *Hierarchy) installL2(l2la uint64) {
	h.evictL2(h.l2.Insert(l2la, Shared))
}

// evictL2 enforces inclusion for a line the L2 displaced: it
// back-invalidates every covered L1 line in all cores, one row walk each,
// and a dirty victim is written to memory (consuming channel bandwidth,
// not latency).
func (h *Hierarchy) evictL2(v Victim) {
	if !v.Valid {
		return
	}
	dirty := v.State == Modified
	la := v.LineAddr << h.l2Shift
	for end := la + 1<<h.l2Shift; la < end; la++ {
		if _, d := invalidate(h.l1row(la), la<<8); d {
			dirty = true
		}
	}
	if dirty {
		h.st.WBToMem++
		// Consume channel occupancy at an arbitrary recent time; the
		// requester does not wait for victim drains.
		h.dram.Access(h.bus.FreeAt() / h.cfg.FreqHz)
	}
}

// PeekL1 exposes a core's L1 state for a byte address (test helper).
func (h *Hierarchy) PeekL1(core int, addr uint64) State {
	la := addr >> h.l1Shift
	own := h.l1row(la)[core*h.ways:][:h.ways]
	if w := wayOf(own, la<<8); w >= 0 {
		return State(own[w] & 0xFF)
	}
	return Invalid
}

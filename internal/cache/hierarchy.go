package cache

import (
	"fmt"

	"cmppower/internal/bus"
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
	if c.L1HitCycles <= 0 || c.L2RTCycles <= 0 || c.BusCyclesPerTx <= 0 {
		return fmt.Errorf("cache: non-positive latency in %+v", c)
	}
	if c.FreqHz <= 0 {
		return fmt.Errorf("cache: non-positive frequency %g", c.FreqHz)
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
	cfg  Config
	l1d  []*Array
	l2   *Array
	bus  *bus.Bus
	dram *mem.DRAM
	st   Stats
	// l1buf and l2buf are the line buffers under l1d and l2, taken from
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
	h := &Hierarchy{cfg: cfg, bus: b, dram: dram}
	// The L1s live in one set-interleaved bank so coherence snoops walk
	// contiguous memory (see newBank).
	h.l1buf = takeLines(cfg.L1.Sets() * cfg.L1.Ways * cfg.NCores)
	h.l1d = newBank(cfg.L1, cfg.NCores, *h.l1buf)
	h.l2buf = takeLines(cfg.L2.Sets() * cfg.L2.Ways)
	h.l2 = newArray(cfg.L2, *h.l2buf, cfg.L2.Ways)
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
// the hierarchy is unusable afterwards. Its arrays are dropped, so a
// later access panics instead of reading a buffer another run now owns.
// The counters stay readable, and releasing twice is a no-op.
func (h *Hierarchy) Release() {
	if h.l1buf == nil {
		return
	}
	putLines(h.l1buf)
	putLines(h.l2buf)
	h.l1buf, h.l2buf = nil, nil
	h.l1d, h.l2 = nil, nil
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
// access sequence digest identically, so checkpoint round-trip tests use
// it to verify a forked run rebuilt the exact cache state of a cold run.
func (h *Hierarchy) LineDigest() uint64 {
	const prime = 1099511628211
	d := uint64(14695981039346656037)
	mix := func(words []uint64) {
		for _, w := range words {
			d ^= w
			d *= prime
		}
	}
	// The bank's arrays interleave one shared backing slice; the first
	// array's lines slice spans it entirely.
	mix(h.l1d[0].lines)
	mix(h.l2.lines)
	return d
}

// Access performs a data access by core on behalf of the timing model.
// now is the core's current absolute cycle; the return value is the cycle
// at which the access completes. Coherence state changes take effect at
// request time (a standard approximation at this fidelity level).
func (h *Hierarchy) Access(core int, addr uint64, write bool, now float64) float64 {
	l1 := h.l1d[core]
	la := l1.LineAddr(addr)
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

	// The L1s share one set-interleaved bank (newBank), so the whole
	// coherence set — every core's ways for this address — is one
	// contiguous row. The tag probe and the snoop below walk it directly;
	// each step mirrors an Array method (Lookup, Peek, SetState,
	// Invalidate) exactly, including LRU refresh on hits only.
	row, ways := h.l1row(la), l1.ways
	probe := la << 8
	base := core * ways
	for w := base; w < base+ways; w++ {
		k := row[w]
		if k == 0 || k&^0xFF != probe {
			continue
		}
		// L1 hit: refresh LRU as Array.Lookup does — rotate the line to
		// the most-recent position of this core's ways.
		for j := w; j > base; j-- {
			row[j] = row[j-1]
		}
		row[base] = k
		st := State(k & 0xFF)
		// Tagged prefetching: the first demand hit on a prefetched line
		// pulls the next line, keeping a stream one line ahead.
		if h.tagged != nil {
			if _, ok := h.tagged[core][la]; ok {
				delete(h.tagged[core], la)
				h.prefetch(core, la+1, now)
			}
		}
		if !write {
			return now + h.cfg.L1HitCycles
		}
		switch st {
		case Modified:
			return now + h.cfg.L1HitCycles
		case Exclusive:
			row[base] = probe | uint64(Modified)
			return now + h.cfg.L1HitCycles
		default: // Shared: bus upgrade, invalidate remote copies
			start := h.bus.Acquire(now)
			h.st.Upgrades++
			h.invalidateOthers(core, la)
			row[base] = probe | uint64(Modified)
			return start + h.cfg.L1HitCycles
		}
	}

	// L1 miss: arbitrate for the bus after the tag probe.
	h.st.L1DMiss[core]++
	start := h.bus.Acquire(now + h.cfg.L1HitCycles)

	// Snoop the other L1s: one flat walk over the row, hopping over this
	// core's own ways. Tags are unique within a core (Insert keeps them
	// so), so no per-core early-out is needed — the non-matching ways of a
	// core that already matched just fail the tag compare. The owning core
	// id is only reconstructed (w / ways) on the rare dirty match.
	sharers := 0
	dirtyOwner := -1
	if write {
		for w := 0; w < len(row); w++ {
			if w == base {
				w += ways - 1
				continue
			}
			k := row[w]
			if k == 0 || k&^0xFF != probe {
				continue
			}
			sharers++
			if State(k&0xFF) == Modified {
				dirtyOwner = w / ways
			}
			row[w] = 0
			h.st.Invals++
		}
	} else {
		// SWMR lets a read snoop stop at the first copy found: an M or E
		// holder is by invariant the only holder, and once one S copy is
		// seen, any remaining copies are also S — invisible to the miss
		// path, which only distinguishes sharers == 0. (A write snoop must
		// walk everything to invalidate every copy.)
		for w := 0; w < len(row); w++ {
			if w == base {
				w += ways - 1
				continue
			}
			k := row[w]
			if k == 0 || k&^0xFF != probe {
				continue
			}
			sharers = 1
			if pst := State(k & 0xFF); pst != Shared {
				if pst == Modified {
					dirtyOwner = w / ways
				}
				row[w] = probe | uint64(Shared)
			}
			break
		}
	}

	var done float64
	l2la := h.l2.LineAddr(addr)
	if dirtyOwner >= 0 {
		// Dirty cache-to-cache transfer through the L2 (owner flushes,
		// requester reads): one L2 round trip.
		h.st.C2C++
		h.st.L2Access++
		h.st.WBToL2++
		h.l2.Insert(l2la, Modified)
		done = start + h.cfg.L2RTCycles
	} else {
		h.st.L2Access++
		if h.l2.Lookup(l2la) != Invalid {
			done = start + h.cfg.L2RTCycles
		} else {
			h.st.L2Miss++
			// Off-chip fetch: the request leaves after the L2 tag probe
			// (half the round trip), waits for the channel, and returns
			// through the L2.
			half := h.cfg.L2RTCycles / 2
			issueSec := (start + half) / h.cfg.FreqHz
			doneSec := h.dram.Access(issueSec)
			done = doneSec*h.cfg.FreqHz + half
			h.installL2(l2la)
		}
	}

	newState := Shared
	if write {
		newState = Modified
	} else if sharers == 0 {
		newState = Exclusive
	}
	// Fill the requested line, inlining Array.Insert with its presence
	// scan elided: the tag probe above just missed, and nothing between
	// probe and fill installs lines into this core's ways (back-
	// invalidations from installL2 only clear them), so the line is known
	// absent. First empty way, else the last (least-recent) way's
	// occupant is the victim.
	set := row[base : base+ways]
	pos := -1
	for i := range set {
		if set[i] == 0 {
			pos = i
			break
		}
	}
	var victim uint64
	if pos < 0 {
		pos = ways - 1
		victim = set[pos]
	}
	for j := pos; j > 0; j-- {
		set[j] = set[j-1]
	}
	set[0] = probe | uint64(newState)
	if victim != 0 && State(victim&0xFF) == Modified {
		// Buffered dirty writeback: drains right after the current bus
		// tenure, consuming bus and L2 bandwidth without stalling the
		// requester.
		h.st.WBToL2++
		h.st.L2Access++
		h.bus.Acquire(start)
		h.installL2(h.l2.LineAddr((victim >> 8) << uint(log2(h.cfg.L1.LineBytes))))
	}
	if h.cfg.PrefetchNextLine {
		// Issue right behind the demand transaction; reserving the bus at
		// the (future) fill-completion time would stall other requesters.
		h.prefetch(core, la+1, start)
	}
	return done
}

// l1row returns the backing-row slice holding every core's ways for la's
// set (the L1s are built by newBank, so array 0's lines are the full
// interleaved backing).
func (h *Hierarchy) l1row(la uint64) []uint64 {
	a := h.l1d[0]
	var idx uint64
	if a.setsPow2 {
		idx = la & a.setMask
	} else {
		idx = la % a.sets
	}
	start := int(idx) * a.stride
	return a.lines[start : start+a.stride]
}

// prefetch pulls the given L1 line into core's cache off the critical
// path. It is conservative with coherence: it aborts if any remote cache
// holds the line dirty, and installs in Shared, downgrading a remote
// Exclusive holder.
func (h *Hierarchy) prefetch(core int, la uint64, now float64) {
	l1 := h.l1d[core]
	if l1.Peek(la) != Invalid {
		return
	}
	for o := 0; o < h.cfg.NCores; o++ {
		if o == core {
			continue
		}
		switch h.l1d[o].Peek(la) {
		case Modified:
			return // do not disturb a dirty owner for a speculative fill
		case Exclusive:
			h.l1d[o].SetState(la, Shared)
		}
	}
	start := h.bus.Acquire(now)
	h.st.Prefetch++
	h.st.L2Access++
	byteAddr := la << uint(log2(h.cfg.L1.LineBytes))
	l2la := h.l2.LineAddr(byteAddr)
	if h.l2.Lookup(l2la) == Invalid {
		h.st.L2Miss++
		// Consume memory bandwidth; the fill is not waited on.
		h.dram.Access((start + h.cfg.L2RTCycles/2) / h.cfg.FreqHz)
		h.installL2(l2la)
	}
	if v := l1.Insert(la, Shared); v.Valid && v.State == Modified {
		h.st.WBToL2++
		h.st.L2Access++
		h.installL2(h.l2.LineAddr(v.LineAddr << uint(log2(h.cfg.L1.LineBytes))))
	}
	if h.tagged != nil {
		if len(h.tagged[core]) > 4096 {
			// Bound stale entries (evicted before use).
			h.tagged[core] = make(map[uint64]struct{})
		}
		h.tagged[core][la] = struct{}{}
	}
}

// FetchMiss charges an instruction-fetch miss for core at cycle now; code
// is shared and effectively always L2-resident, so the cost is one bus
// transaction plus the L2 round trip.
func (h *Hierarchy) FetchMiss(core int, now float64) float64 {
	start := h.bus.Acquire(now)
	h.st.L2Access++
	return start + h.cfg.L2RTCycles
}

// installL2 inserts a line into the L2 and enforces inclusion: a displaced
// L2 line back-invalidates every covered L1 line in all cores, and dirty
// victims are written to memory (consuming channel bandwidth, not latency).
func (h *Hierarchy) installL2(l2la uint64) {
	v := h.l2.Insert(l2la, Shared)
	if !v.Valid {
		return
	}
	ratio := uint64(h.cfg.L2.LineBytes / h.cfg.L1.LineBytes)
	baseL1 := v.LineAddr * ratio
	dirty := v.State == Modified
	for sub := uint64(0); sub < ratio; sub++ {
		for o := 0; o < h.cfg.NCores; o++ {
			if st := h.l1d[o].Invalidate(baseL1 + sub); st == Modified {
				dirty = true
			}
		}
	}
	if dirty {
		h.st.WBToMem++
		// Consume channel occupancy at an arbitrary recent time; the
		// requester does not wait for victim drains.
		h.dram.Access(h.bus.FreeAt() / h.cfg.FreqHz)
	}
}

// invalidateOthers drops la from every other core's L1.
func (h *Hierarchy) invalidateOthers(core int, la uint64) {
	for o := 0; o < h.cfg.NCores; o++ {
		if o == core {
			continue
		}
		if st := h.l1d[o].Invalidate(la); st != Invalid {
			h.st.Invals++
			if st == Modified {
				h.st.WBToL2++
				h.st.L2Access++
				h.l2.Insert(h.l2.LineAddr(la<<uint(log2(h.cfg.L1.LineBytes))), Modified)
			}
		}
	}
}

// PeekL1 exposes a core's L1 state for a byte address (test helper).
func (h *Hierarchy) PeekL1(core int, addr uint64) State {
	return h.l1d[core].Peek(h.l1d[core].LineAddr(addr))
}

// log2 of a power of two.
func log2(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

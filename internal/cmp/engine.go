package cmp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"cmppower/internal/cache"
	"cmppower/internal/cpu"
	"cmppower/internal/floorplan"
	"cmppower/internal/power"
	"cmppower/internal/workload"
)

// batchCap is the per-core event buffer length. Big enough that refill
// overhead (and its cancellation poll) amortizes to noise.
const batchCap = 256

// eventBufs recycles runner event buffers across runs, so a run does not
// allocate (and the collector reclaim) 8 KiB per core. Every buffer is
// batchCap long, so one pool serves every core count. A recycled buffer
// needs no clearing: the engine reads only the events its source has just
// written into it.
var eventBufs = sync.Pool{New: func() any { return new([batchCap]workload.Event) }}

// runner is one core's event supply: a prefetched slice of upcoming
// events. Prefetching is safe because event generation is a pure
// function of (program, tid, n, seed) — engine scheduling never feeds
// back into a stream.
type runner struct {
	src    eventSource
	buf    *[batchCap]workload.Event
	pos, n int
}

// newRunners sets up one runner per core, each on a buffer from
// eventBufs.
func (e *engine) newRunners() []runner {
	runners := make([]runner, len(e.sources))
	for i, src := range e.sources {
		runners[i] = runner{src: src, buf: eventBufs.Get().(*[batchCap]workload.Event)}
	}
	return runners
}

// releaseRunners returns the buffers newRunners took to eventBufs.
func releaseRunners(runners []runner) {
	for _, r := range runners {
		eventBufs.Put(r.buf)
	}
}

// engine carries one run's mutable state through either core loop:
// runFused (the default, sampled or not) and runUnbatched (the seed's
// event-at-a-time reference path, selected by Config.Unbatched and used
// by traced runs). They share every piece of event semantics via
// handleSync and the interval samples via takeSample, so they can only
// diverge in scheduling order, which the equivalence tests and doctor
// check 10 (exit code 6) pin to bit-identical.
type engine struct {
	cfg       Config
	sources   []eventSource
	cores     []*cpu.Core
	states    []coreState
	sleep     []float64
	hier      *cache.Hierarchy
	barriers  []*barrier
	locks     []*lock
	quorum    int
	maxEvents int64
	ring      *traceRing
	cancel    <-chan struct{}

	events    int64
	doneCount int
	watermark float64
	lastMark  float64
	samples   []Sample
	smp       sampler
	// wake collects cores made runnable by the last handleSync call; the
	// caller drains them.
	wake []int

	// A sampled runFused defers compute charges (see drainSampled):
	// tails[i] holds core i's drained but uncharged compute events, mark
	// is the post-event clock that closes the current interval, and
	// (candKey, candCore) is the earliest tail entry that reaches it, in
	// the seed's (pre-clock, core id) order; candKey is infKey when no
	// entry does.
	tails    []tail
	mark     float64
	candKey  uint64
	candCore int
}

// infKey is +Inf as math.Float64bits: the ordering key of a parked core
// and of "no candidate".
const infKey = uint64(0x7FF0000000000000)

func (e *engine) cancelErr() error {
	return fmt.Errorf("cmp: run cancelled after %d events: %w", e.events, e.cfg.Ctx.Err())
}

func (e *engine) budgetErr() error {
	return fmt.Errorf("cmp: event budget %d exhausted; runaway program?", e.maxEvents)
}

var errDeadlock = errors.New("cmp: deadlock — no runnable core (unbalanced barriers or locks?)")

// handleSync executes one synchronization event exactly as the seed
// engine's switch did. It returns whether the core is still runnable
// afterwards and whether the per-event postlude (trace, watermark,
// sample check) must be skipped — the seed skips it for a non-final
// barrier arrival only. Cores woken here are appended to e.wake; the
// caller owns any scheduling-structure updates.
func (e *engine) handleSync(pick int, ev workload.Event) (runnable, skipPost bool, err error) {
	core := e.cores[pick]
	switch ev.Kind {
	case workload.EvBarrier:
		core.ExecSync(e.cfg.LockCycles)
		b := e.barriers[ev.ID]
		b.arrived++
		if core.Clock() > b.maxArrival {
			b.maxArrival = core.Clock()
		}
		if b.arrived < e.quorum {
			e.states[pick] = stWaitBarrier
			b.waiting = append(b.waiting, pick)
			return false, true, nil
		}
		// Last arrival releases everyone.
		release := b.maxArrival + e.cfg.BarrierCycles
		core.AdvanceTo(release)
		for _, w := range b.waiting {
			if e.cfg.ThriftyBarriers {
				if slept := release - e.cores[w].Clock(); slept > 0 {
					e.sleep[w] += slept
				}
			}
			e.cores[w].AdvanceTo(release)
			e.states[w] = stRunnable
			e.wake = append(e.wake, w)
		}
		b.arrived = 0
		b.maxArrival = 0
		b.waiting = b.waiting[:0]
		return true, false, nil
	case workload.EvLockAcq:
		l := e.locks[ev.ID]
		if !l.held {
			l.held = true
			l.holder = pick
			core.ExecSync(e.cfg.LockCycles)
			return true, false, nil
		}
		e.states[pick] = stWaitLock
		l.queue = append(l.queue, pick)
		return false, false, nil
	case workload.EvLockRel:
		l := e.locks[ev.ID]
		if !l.held || l.holder != pick {
			return false, false, fmt.Errorf("cmp: core %d releases lock %d it does not hold", pick, ev.ID)
		}
		core.ExecSync(e.cfg.LockCycles)
		if len(l.queue) > 0 {
			next := l.queue[0]
			l.queue = l.queue[1:]
			l.holder = next
			e.cores[next].AdvanceTo(core.Clock())
			e.cores[next].ExecSync(e.cfg.LockCycles)
			e.states[next] = stRunnable
			e.wake = append(e.wake, next)
		} else {
			l.held = false
		}
		return true, false, nil
	case workload.EvDone:
		e.states[pick] = stDone
		e.doneCount++
		return false, false, nil
	}
	// Unknown kinds are ignored, as the seed's switch ignored them.
	return true, false, nil
}

// runUnbatched is the seed core loop: scan for the runnable core with
// the smallest clock, execute exactly one event, repeat. Kept as the
// reference runFused is verified against, and run for traced runs,
// whose trace records every event in this loop's order.
func (e *engine) runUnbatched() error {
	for e.doneCount < e.cfg.NCores {
		if e.cancel != nil {
			select {
			case <-e.cancel:
				return e.cancelErr()
			default:
			}
		}
		// Pick the runnable core with the smallest clock (ties: lowest id).
		pick := -1
		for i := 0; i < e.cfg.NCores; i++ {
			if e.states[i] != stRunnable {
				continue
			}
			if pick < 0 || e.cores[i].Clock() < e.cores[pick].Clock() {
				pick = i
			}
		}
		if pick < 0 {
			return errDeadlock
		}
		e.events++
		if e.events > e.maxEvents {
			return e.budgetErr()
		}
		core := e.cores[pick]
		ev := e.sources[pick].Next()
		switch ev.Kind {
		case workload.EvCompute:
			core.ExecCompute(ev)
		case workload.EvLoad, workload.EvStore:
			core.ExecMem(ev, e.hier)
		default:
			e.wake = e.wake[:0]
			_, skipPost, err := e.handleSync(pick, ev)
			if err != nil {
				return err
			}
			if skipPost {
				continue
			}
		}
		if e.ring != nil {
			e.ring.push(TraceEvent{
				Cycle: core.Clock(), Core: pick, Kind: ev.Kind,
				N: int(ev.N), Addr: ev.Addr, ID: int(ev.ID),
			})
		}
		if c := core.Clock(); c > e.watermark {
			e.watermark = c
		}
		if e.cfg.SampleCycles > 0 && e.watermark >= e.lastMark+e.cfg.SampleCycles {
			e.takeSample()
		}
	}
	return nil
}

// refill loads the next batch of events for r. It doubles as
// runFused's cancellation poll: at most batchCap events run between
// polls, comfortably within the "one simulation step" abort contract.
func (e *engine) refill(r *runner) error {
	if e.cancel != nil {
		select {
		case <-e.cancel:
			return e.cancelErr()
		default:
		}
	}
	r.n = r.src.NextBatch(r.buf[:])
	r.pos = 0
	return nil
}

// runFused is the fast path for every untraced run. It rests on a
// commutation argument: a compute event mutates only its own core's
// private state (clock, stats, unit counters), so the relative order in
// which different cores' compute events execute cannot affect any
// result. The only cross-core coupling flows through shared structures
// — the bus, the caches, DRAM, locks, and barriers — whose mutation
// order and request times must match the seed engine exactly. A core's
// shared event executes, in the seed schedule, when its pre-event clock
// is the minimum (clock, id) among runnable cores, and that clock is a
// pure function of the core's own preceding events. runFused therefore
// drains each core's compute events eagerly and arbitrates between
// cores only at memory and synchronization events, ordered by exactly
// that key. Completed runs are bit-identical to the seed; only the
// internal event numbering differs, which is observable solely through
// which event trips the MaxEvents budget or a cancellation — both
// already error paths.
//
// An unsampled run charges each drained compute event on the spot. A
// sampled run cannot: an interval sample reads every core's counters
// at one point of the seed's order, and an eager charge could put
// another core's later compute events in it. So a sampled run defers
// compute charges to per-core tails and closes intervals by the cut
// rule of DESIGN.md §8 (drainSampled, closeCandidates, postlude).
func (e *engine) runFused() error {
	nCores := e.cfg.NCores
	runners := e.newRunners()
	defer releaseRunners(runners)
	sampled := e.cfg.SampleCycles > 0
	if sampled {
		e.tails = make([]tail, nCores)
		e.rescan()
	}
	// keys[i] is core i's clock at its pending shared event — the seed's
	// scheduling key for that event — stored as math.Float64bits, which
	// preserves ordering for non-negative floats and lets the arg-min
	// scan run on plain integer compares. Blocked and finished cores park
	// at +Inf so the scan needs no separate state check, and the
	// strictly-less compare makes ties resolve to the lowest core id,
	// exactly the seed's tie-break. (An incremental winner tree was tried
	// here and lost: at these core counts its dependent-load replay path
	// costs more per event than the branchless scan over two cache lines.)
	//
	// The key array is padded to a multiple of four +Inf entries so the
	// arg-min's value pass can run four independent min chains: the serial
	// reduction's weakness is not operation count but its one-cycle-per-
	// element dependency chain, which four lanes cut to a quarter.
	nk := (nCores + 3) &^ 3
	keys := make([]uint64, nk)
	for i := nCores; i < nk; i++ {
		keys[i] = infKey
	}
	// pend[i] is a copy of core i's pending shared event. The copy is made
	// while the batch buffer entry is still warm from the kind check; by
	// the time the core wins arbitration, arbitrarily many other cores have
	// run and the buffer entry has usually left the host's cache, while
	// this compact array stays hot.
	pend := make([]workload.Event, nCores)
	// live counts unparked cores (keys[i] != infKey). When exactly one
	// core is live — serial sections, the tail of a barrier — the arg-min
	// is trivially the previous winner as long as it has not parked, so
	// the scan is skipped entirely for the whole single-threaded stretch.
	// A sampled run's sole live core also runs its compute and memory
	// events in full as it drains them, since no other core has events to
	// order against them (drainSampled).
	live := nCores
	// advance executes core i's compute events up to its next shared
	// event (consumed from the batch into pend[i]) and refreshes the
	// key. The event budget is charged per drained segment rather than
	// per event; a runaway program can overshoot the budget by at most
	// one batch before the error trips, which only shifts where an
	// already-failing run fails.
	advance := func(i int) error {
		if sampled {
			return e.drainSampled(&runners[i], i, live == 1, &pend[i], &keys[i])
		}
		r := &runners[i]
		core := e.cores[i]
		for {
			if r.pos == r.n {
				if err := e.refill(r); err != nil {
					return err
				}
			}
			buf := r.buf[r.pos:r.n]
			for idx := range buf {
				ev := &buf[idx]
				if ev.Kind != workload.EvCompute {
					r.pos += idx + 1
					e.events += int64(idx)
					if e.events > e.maxEvents {
						return e.budgetErr()
					}
					pend[i] = *ev
					keys[i] = math.Float64bits(core.Clock())
					return nil
				}
				core.ExecComputeBurst(int(ev.N), int(ev.FP), int(ev.Branches))
			}
			e.events += int64(len(buf))
			if e.events > e.maxEvents {
				return e.budgetErr()
			}
			r.pos = r.n
		}
	}
	for i := 0; i < nCores; i++ {
		if err := advance(i); err != nil {
			return err
		}
	}
	states := e.states
	pick := -1
	for e.doneCount < nCores {
		if live != 1 || pick < 0 || keys[pick] == infKey {
			// Two-pass arg-min: the value reduction runs four conditional-move
			// chains in parallel over the padded keys, and the index pass takes
			// its single unpredictable branch only at the known winner. First
			// index with the minimum key = lowest core id, the seed tie-break.
			// (Fusing index tracking into the lanes was tried and lost badly:
			// the two-result updates compile to branches, not CMOVs, and those
			// branches are data-dependent coin flips.)
			b0, b1, b2, b3 := keys[0], keys[1], keys[2], keys[3]
			for i := 4; i+3 < len(keys); i += 4 {
				b0 = min(b0, keys[i])
				b1 = min(b1, keys[i+1])
				b2 = min(b2, keys[i+2])
				b3 = min(b3, keys[i+3])
			}
			best := min(min(b0, b1), min(b2, b3))
			if best >= infKey {
				return errDeadlock
			}
			pick = 0
			for keys[pick] != best {
				pick++
			}
		}
		ev := &pend[pick]
		e.events++
		if e.events > e.maxEvents {
			return e.budgetErr()
		}
		key := keys[pick]
		if sampled {
			e.closeCandidates(key, pick)
			if t := &e.tails[pick]; len(t.ents) > 0 {
				e.charge(pick, len(t.ents))
			}
		}
		if ev.Kind == workload.EvLoad || ev.Kind == workload.EvStore {
			e.cores[pick].ExecLoadStore(ev.Addr, ev.Kind == workload.EvStore, e.hier)
			if sampled {
				e.postlude(key, pick)
			}
			if err := advance(pick); err != nil {
				return err
			}
			continue
		}
		e.wake = e.wake[:0]
		_, skipPost, err := e.handleSync(pick, *ev)
		if err != nil {
			return err
		}
		if sampled {
			if !skipPost {
				e.postlude(key, pick)
			}
			e.chargeStepBack(key, pick)
		}
		// Woken cores count as live before anything drains, so a sampled
		// drain never mistakes itself for the sole runner.
		runnable := states[pick] == stRunnable
		if !runnable {
			keys[pick] = infKey
			live--
		}
		live += len(e.wake)
		if runnable {
			if err := advance(pick); err != nil {
				return err
			}
		}
		for _, w := range e.wake {
			if err := advance(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// deferred is one compute event a sampled run has drained but not
// charged: the core's clock has moved past it (pre to post), its
// counters have not.
type deferred struct {
	pre, post       float64
	n, fp, branches int32
}

// tail is one core's deferred compute events, oldest first. Entries
// before head are charged; cand indexes the first entry whose
// post-clock reaches the engine's mark, or is -1.
type tail struct {
	ents       []deferred
	head, cand int
}

// drainSampled is runFused's advance for a sampled run: it drains core
// i up to its next event that needs arbitration, which it stores in
// *pend with its key. While other cores are live, that is the next
// shared event, and each compute event before it only advances the
// clock and joins the core's tail, to be charged before the core's own
// next shared event or earlier, when an interval closes after it. A
// sole live core (direct) has nothing to order against: it executes
// compute and memory events in full, in program order, checks each
// against the mark as the seed's postlude does, and stops only at a
// synchronization event.
func (e *engine) drainSampled(r *runner, i int, direct bool, pend *workload.Event, key *uint64) error {
	core := e.cores[i]
	for {
		if r.pos == r.n {
			if err := e.refill(r); err != nil {
				return err
			}
		}
		buf := r.buf[r.pos:r.n]
		for idx := range buf {
			ev := &buf[idx]
			pre := core.Clock()
			switch {
			case ev.Kind == workload.EvCompute:
				if !direct {
					core.AdvanceCompute(int(ev.N), int(ev.Branches))
					e.push(i, deferred{pre: pre, post: core.Clock(), n: ev.N, fp: ev.FP, branches: ev.Branches})
					continue
				}
				core.ExecComputeBurst(int(ev.N), int(ev.FP), int(ev.Branches))
			case direct && (ev.Kind == workload.EvLoad || ev.Kind == workload.EvStore):
				core.ExecLoadStore(ev.Addr, ev.Kind == workload.EvStore, e.hier)
			default:
				r.pos += idx + 1
				e.events += int64(idx)
				if e.events > e.maxEvents {
					return e.budgetErr()
				}
				*pend = *ev
				*key = math.Float64bits(pre)
				return nil
			}
			if c := core.Clock(); c >= e.mark {
				e.closeInterval(math.Float64bits(pre), i, c)
			}
		}
		e.events += int64(len(buf))
		if e.events > e.maxEvents {
			return e.budgetErr()
		}
		r.pos = r.n
	}
}

// precedes reports whether the event keyed (k, i) comes before the one
// keyed (k2, i2) in the seed's order: lower pre-clock first, lower core
// id on ties.
func precedes(k uint64, i int, k2 uint64, i2 int) bool {
	return k < k2 || k == k2 && i < i2
}

// push appends one deferred compute event to core i's tail and records
// it as the core's candidate when it is the first to reach the mark.
func (e *engine) push(i int, d deferred) {
	t := &e.tails[i]
	t.ents = append(t.ents, d)
	if t.cand < 0 && d.post >= e.mark {
		e.setCandidate(i, len(t.ents)-1)
	}
}

// setCandidate makes tail entry j core i's candidate and keeps
// (candKey, candCore) the earliest candidate over all cores.
func (e *engine) setCandidate(i, j int) {
	e.tails[i].cand = j
	if k := math.Float64bits(e.tails[i].ents[j].pre); precedes(k, i, e.candKey, e.candCore) {
		e.candKey, e.candCore = k, i
	}
}

// charge charges core i's tail entries before index upto, oldest first.
func (e *engine) charge(i, upto int) {
	t := &e.tails[i]
	core := e.cores[i]
	for _, d := range t.ents[t.head:upto] {
		core.ChargeCompute(int(d.n), int(d.fp), int(d.branches))
	}
	t.head = upto
	if t.head == len(t.ents) {
		t.ents, t.head = t.ents[:0], 0
	}
}

// chargeBefore charges, on every core, the tail entries that precede
// the event keyed (k, id) in the seed's order.
func (e *engine) chargeBefore(k uint64, id int) {
	for i := range e.tails {
		t := &e.tails[i]
		j := t.head
		for j < len(t.ents) && precedes(math.Float64bits(t.ents[j].pre), i, k, id) {
			j++
		}
		e.charge(i, j)
	}
}

// closeCandidates closes every interval whose trigger is a tail entry
// that precedes the shared event keyed (k, pick). A core's own tail
// entries all precede its pending shared event, whatever their clocks.
func (e *engine) closeCandidates(k uint64, pick int) {
	for e.candKey < k || e.candKey == k && e.candCore <= pick {
		e.closeAtCandidate()
	}
}

// closeAtCandidate closes the current interval at the earliest
// candidate: it charges every tail entry up to and including it, in the
// seed's order, and samples.
func (e *engine) closeAtCandidate() {
	i := e.candCore
	t := &e.tails[i]
	d := t.ents[t.cand]
	e.charge(i, t.cand+1)
	e.closeInterval(math.Float64bits(d.pre), i, d.post)
}

// postlude is the seed's sample check after the shared event keyed
// (k, pick): when the event's post-clock reaches the mark it closes the
// interval, after charging every tail entry that precedes it.
func (e *engine) postlude(k uint64, pick int) {
	if c := e.cores[pick].Clock(); c >= e.mark {
		e.closeInterval(k, pick, c)
	}
}

// chargeStepBack handles a wake that breaks the seed's (pre-clock, core
// id) order: with zero-cost synchronization a woken core can resume at
// the waker's exact pre-clock with a lower id, ahead of tail entries the
// seed ran before the waker. Charging those entries now restores the
// order the cut rule relies on (DESIGN.md §8).
func (e *engine) chargeStepBack(k uint64, pick int) {
	for _, w := range e.wake {
		if precedes(math.Float64bits(e.cores[w].Clock()), w, k, pick) {
			e.chargeBefore(k, pick)
			return
		}
	}
}

// closeInterval closes the current interval at the trigger keyed
// (k, id), whose post-event clock is post: it charges every tail entry
// that precedes the trigger, samples, and finds the next interval's
// candidates.
func (e *engine) closeInterval(k uint64, id int, post float64) {
	e.chargeBefore(k, id)
	if post > e.watermark {
		e.watermark = post
	}
	e.takeSample()
	e.rescan()
}

// rescan sets the mark of the interval takeSample last opened and finds
// each tail's first entry that reaches it.
func (e *engine) rescan() {
	e.mark = e.lastMark + e.cfg.SampleCycles
	if !(e.mark > e.lastMark) {
		// SampleCycles is below the clock's resolution here, so the seed's
		// watermark already reaches the mark and every postlude event
		// closes an interval.
		e.mark = math.Inf(-1)
	}
	e.candKey, e.candCore = infKey, 0
	for i := range e.tails {
		t := &e.tails[i]
		t.cand = -1
		for j := t.head; j < len(t.ents); j++ {
			if t.ents[j].post >= e.mark {
				e.setCandidate(i, j)
				break
			}
		}
	}
}

// sampler holds the previous cumulative counters between interval
// samples so takeSample fills each delta directly instead of
// re-snapshotting the whole hierarchy and subtracting full Activity
// records. The cumulative quantities (including the rounded fractional
// ones) are defined exactly as collectActivity's, so partitioned
// samples still sum to the run totals.
type sampler struct {
	init      bool
	prevCore  [][floorplan.UnitBus + 1]int64
	prevSleep []int64
	prevL2    int64
	prevBus   int64
	prevInstr int64
}

// takeSample closes the current interval: it appends the delta activity
// since the previous sample (when any) and advances the interval mark.
func (e *engine) takeSample() {
	sm := &e.smp
	if !sm.init {
		sm.init = true
		sm.prevCore = make([][floorplan.UnitBus + 1]int64, len(e.cores))
		sm.prevSleep = make([]int64, len(e.cores))
	}
	delta := power.NewActivity(e.cfg.TotalCores)
	var instr int64
	var il1MissFetches float64
	for i, core := range e.cores {
		cs := core.Stats()
		instr += cs.Instructions
		il1MissFetches += cs.IL1Misses
		if e.sleep != nil {
			cur := int64(math.Round(e.sleep[i]))
			delta.AddSleep(i, cur-sm.prevSleep[i])
			sm.prevSleep[i] = cur
		}
		for _, u := range floorplan.CoreUnits() {
			if u == floorplan.UnitDL1 {
				continue // counted by the hierarchy
			}
			cur := core.Activity(u)
			delta.AddCore(i, u, cur-sm.prevCore[i][u])
			sm.prevCore[i][u] = cur
		}
		curDL1 := e.hier.L1DAccesses(i)
		delta.AddCore(i, floorplan.UnitDL1, curDL1-sm.prevCore[i][floorplan.UnitDL1])
		sm.prevCore[i][floorplan.UnitDL1] = curDL1
	}
	curL2 := e.hier.L2Accesses() + int64(math.Round(il1MissFetches))
	delta.AddL2(curL2 - sm.prevL2)
	sm.prevL2 = curL2
	curBus := e.hier.Bus().Transactions
	delta.AddBus(curBus - sm.prevBus)
	sm.prevBus = curBus
	if delta.Total() > 0 || instr > sm.prevInstr {
		e.samples = append(e.samples, Sample{
			StartCycle:   e.lastMark,
			EndCycle:     e.watermark,
			Activity:     delta,
			Instructions: instr - sm.prevInstr,
		})
	}
	sm.prevInstr = instr
	e.lastMark = e.watermark
}

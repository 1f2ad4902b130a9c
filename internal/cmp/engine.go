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

// batchSource is the fast-path extension of eventSource: it fills buf
// with the next events (the exact sequence repeated Next calls would
// deliver) and returns the count. Both engine sources implement it;
// a source without it falls back to one Next call per refill.
type batchSource interface {
	NextBatch(buf []workload.Event) int
}

// windowSource is the zero-copy extension of batchSource: instead of
// filling the caller's buffer it returns a read-only window of its own
// storage, at most max events long. The checkpoint recorder and replay
// sources implement it so recording writes each event to memory exactly
// once (the engine consumes the log's own chunks) and replaying copies
// nothing at all. The engine never mutates a window's contents.
type windowSource interface {
	NextWindow(max int) []workload.Event
}

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
	src   eventSource
	batch batchSource  // nil when src cannot batch
	win   windowSource // nil when src cannot hand out windows
	// own is the pooled buffer buf starts on; nil for a window source,
	// whose buf always points into the source's own storage instead.
	own    *[batchCap]workload.Event
	buf    []workload.Event
	pos, n int
}

// newRunners sets up one runner per core. A runner over a window source
// (checkpoint recording or replay) reads that source's storage and takes
// no buffer; every other runner takes one from eventBufs.
func (e *engine) newRunners() []runner {
	runners := make([]runner, len(e.sources))
	for i, src := range e.sources {
		r := &runners[i]
		r.src = src
		r.batch, _ = src.(batchSource)
		r.win, _ = src.(windowSource)
		if r.win == nil {
			r.own = eventBufs.Get().(*[batchCap]workload.Event)
			r.buf = r.own[:]
		}
	}
	return runners
}

// releaseRunners returns the buffers newRunners took to eventBufs. Only
// own goes back, never buf: a window belongs to its checkpoint's event
// log, and pooling it would let a later run overwrite a recorded log.
func releaseRunners(runners []runner) {
	for i := range runners {
		r := &runners[i]
		if r.own != nil {
			eventBufs.Put(r.own)
			r.own, r.buf = nil, nil
		}
	}
}

// engine carries one run's mutable state through any of the three core
// loops: runFused (the default), runBatched (runs that trace or sample
// the interleaving, such as the DTM replay's sampled run) and
// runUnbatched (the seed's event-at-a-time reference path, selected by
// Config.Unbatched). They share every piece of event semantics via
// handleSync, and the two sampling loops via takeSample, so they can only
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
	// batched loop pushes them into the heap after restoring root order.
	wake []int
}

func (e *engine) cancelErr() error {
	return fmt.Errorf("cmp: run cancelled after %d events: %w", e.events, e.cfg.Ctx.Err())
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
// reference the batched path is verified against.
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
			return fmt.Errorf("cmp: event budget %d exhausted; runaway program?", e.maxEvents)
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

// refill loads the next batch of events for r. It doubles as the
// batched loop's cancellation poll: at most batchCap events run between
// polls, comfortably within the "one simulation step" abort contract.
func (e *engine) refill(r *runner) error {
	if e.cancel != nil {
		select {
		case <-e.cancel:
			return e.cancelErr()
		default:
		}
	}
	switch {
	case r.win != nil:
		// Zero-copy path: point the runner at the source's own storage.
		// The window is at most batchCap long, so the poll cadence and
		// budget-trip granularity match the buffered path.
		w := r.win.NextWindow(batchCap)
		r.buf = w
		r.n = len(w)
	case r.batch != nil:
		r.n = r.batch.NextBatch(r.buf)
	default:
		r.buf[0] = r.src.Next()
		r.n = 1
	}
	r.pos = 0
	return nil
}

// runFused is the fastest path, used when neither tracing nor sampling
// observes the event interleaving. It rests on a commutation argument:
// a compute event mutates only its own core's private state (clock,
// stats, unit counters), so the relative order in which different
// cores' compute events execute cannot affect any result. The only
// cross-core coupling flows through shared structures — the bus, the
// caches, DRAM, locks, and barriers — whose mutation order and request
// times must match the seed engine exactly. A core's shared event
// executes, in the seed schedule, when its pre-event clock is the
// minimum (clock, id) among runnable cores, and that clock is a pure
// function of the core's own preceding events. runFused therefore
// drains each core's compute events eagerly (charging them on the spot)
// and arbitrates between cores only at memory and synchronization
// events, ordered by exactly that key. Completed runs are bit-identical
// to the seed; only the internal event numbering differs, which is
// observable solely through which event trips the MaxEvents budget or a
// cancellation — both already error paths.
func (e *engine) runFused() error {
	nCores := e.cfg.NCores
	runners := e.newRunners()
	defer releaseRunners(runners)
	// keys[i] is core i's clock at its pending shared event — the seed's
	// scheduling key for that event — stored as math.Float64bits, which
	// preserves ordering for non-negative floats and lets the arg-min
	// scan run on plain integer compares. Blocked and finished cores park
	// at +Inf so the scan needs no separate state check, and the
	// strictly-less compare makes ties resolve to the lowest core id,
	// exactly the seed's tie-break. (An incremental winner tree was tried
	// here and lost: at these core counts its dependent-load replay path
	// costs more per event than the branchless scan over two cache lines.)
	const infKey = uint64(0x7FF0000000000000)
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
	// advance executes core i's compute events up to its next shared
	// event (consumed from the batch into pend[i]) and refreshes the
	// key. The event budget is charged per
	// drained segment rather than per event; a runaway program can
	// overshoot the budget by at most one batch before the error trips,
	// which only shifts where an already-failing run fails.
	advance := func(i int) error {
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
						return fmt.Errorf("cmp: event budget %d exhausted; runaway program?", e.maxEvents)
					}
					pend[i] = *ev
					keys[i] = math.Float64bits(core.Clock())
					return nil
				}
				core.ExecComputeBurst(int(ev.N), int(ev.FP), int(ev.Branches))
			}
			e.events += int64(len(buf))
			if e.events > e.maxEvents {
				return fmt.Errorf("cmp: event budget %d exhausted; runaway program?", e.maxEvents)
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
	// live counts unparked cores (keys[i] != infKey). When exactly one
	// core is live — serial sections, the tail of a barrier — the arg-min
	// is trivially the previous winner as long as it has not parked, so
	// the scan is skipped entirely for the whole single-threaded stretch.
	live := nCores
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
			return fmt.Errorf("cmp: event budget %d exhausted; runaway program?", e.maxEvents)
		}
		if ev.Kind == workload.EvLoad || ev.Kind == workload.EvStore {
			e.cores[pick].ExecLoadStore(ev.Addr, ev.Kind == workload.EvStore, e.hier)
			if err := advance(pick); err != nil {
				return err
			}
			continue
		}
		e.wake = e.wake[:0]
		if _, _, err := e.handleSync(pick, *ev); err != nil {
			return err
		}
		if states[pick] == stRunnable {
			if err := advance(pick); err != nil {
				return err
			}
		} else {
			keys[pick] = infKey
			live--
		}
		live += len(e.wake)
		for _, w := range e.wake {
			if err := advance(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// runBatched is the fast path for runs that observe the interleaving
// (tracing or sampling on). Scheduling invariant: the winner of the
// seed's scan is the minimum of (clock, id) over runnable cores, and a
// compute/memory event only advances the executing core's clock — it
// never mutates another core's state or clock. So the current winner
// may keep executing consecutive compute/memory events, without any
// global re-pick, for as long as it would keep winning: while its clock
// stays below the runner-up's clock (or equal with a smaller id). The
// runner-up bound — the horizon — is constant during such a run because
// nobody else moves. Synchronization events go through the shared
// handleSync slow path and force a re-pick, exactly reproducing the
// seed's global ordering of every shared-resource interaction.
//
// One pass over a contiguous clock mirror finds both the winner and the
// horizon; at realistic core counts that beats an index structure, whose
// pointer-chasing comparisons cost more than they save, and it amortizes
// to nothing over a multi-event run. The mirror is refreshed at the only
// points clocks move: when the picked core's run ends and when handleSync
// advances woken cores.
func (e *engine) runBatched() error {
	nCores := e.cfg.NCores
	clocks := make([]float64, nCores)
	for i, c := range e.cores {
		clocks[i] = c.Clock()
	}
	runners := e.newRunners()
	defer releaseRunners(runners)
	tracing := e.ring != nil
	sampleEvery := e.cfg.SampleCycles
	// track gates the per-event postlude; with tracing and sampling off,
	// the watermark is unobservable and need not be maintained per event.
	track := tracing || sampleEvery > 0
	states := e.states
repick:
	for e.doneCount < nCores {
		// One scan: the minimum (clock, id) is the pick, the runner-up is
		// the horizon. Ascending ids make "strictly less" the (clock, id)
		// lexicographic order.
		best, horizon := math.Inf(1), math.Inf(1)
		pick, horizonID := -1, -1
		for i, st := range states {
			if st != stRunnable {
				continue
			}
			if c := clocks[i]; c < best {
				best, horizon = c, best
				pick, horizonID = i, pick
			} else if c < horizon {
				horizon, horizonID = c, i
			}
		}
		if pick < 0 {
			return errDeadlock
		}
		core := e.cores[pick]
		r := &runners[pick]
		for {
			if r.pos == r.n {
				if err := e.refill(r); err != nil {
					return err
				}
			}
			buf := r.buf[r.pos:r.n]
			for idx := range buf {
				ev := &buf[idx]
				e.events++
				if e.events > e.maxEvents {
					return fmt.Errorf("cmp: event budget %d exhausted; runaway program?", e.maxEvents)
				}
				switch ev.Kind {
				case workload.EvCompute:
					core.ExecCompute(*ev)
				case workload.EvLoad, workload.EvStore:
					core.ExecMem(*ev, e.hier)
				default:
					// Sync slow path: execute, refresh the clock mirror for
					// every core the event may have moved, then re-pick —
					// woken cores can beat the current one.
					r.pos += idx + 1
					e.wake = e.wake[:0]
					_, skipPost, err := e.handleSync(pick, *ev)
					if err != nil {
						return err
					}
					if !skipPost {
						if tracing {
							e.ring.push(TraceEvent{
								Cycle: core.Clock(), Core: pick, Kind: ev.Kind,
								N: int(ev.N), Addr: ev.Addr, ID: int(ev.ID),
							})
						}
						if c := core.Clock(); c > e.watermark {
							e.watermark = c
						}
						if sampleEvery > 0 && e.watermark >= e.lastMark+sampleEvery {
							e.takeSample()
						}
					}
					clocks[pick] = core.Clock()
					for _, w := range e.wake {
						clocks[w] = e.cores[w].Clock()
					}
					continue repick
				}
				if track {
					if tracing {
						e.ring.push(TraceEvent{
							Cycle: core.Clock(), Core: pick, Kind: ev.Kind,
							N: int(ev.N), Addr: ev.Addr, ID: int(ev.ID),
						})
					}
					if c := core.Clock(); c > e.watermark {
						e.watermark = c
					}
					if sampleEvery > 0 && e.watermark >= e.lastMark+sampleEvery {
						e.takeSample()
					}
				}
				c := core.Clock()
				if c > horizon || (c == horizon && pick > horizonID) {
					r.pos += idx + 1
					clocks[pick] = c
					continue repick
				}
			}
			r.pos = r.n
		}
	}
	return nil
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

package workload

import (
	"fmt"
	"math"
)

// Stream lazily produces one thread's events for a program instance.
// Create it with NewStream; call Next until EvDone.
type Stream struct {
	tid, n int
	rng    RNG
	stack  []frame
	// kern emits the Kernel leaf in progress; it is active while it has
	// accesses remaining. One emitter serves every Kernel leaf the
	// thread reaches, and tables keeps the burst tables it has built, one
	// per kernel shape, so running a kernel again allocates nothing.
	kern   kernelEmitter
	tables []burstTable
	done   bool
}

// frame is one interpreter activation record.
type frame struct {
	steps    []Step
	idx      int
	times    int    // remaining loop iterations including the current one
	epilogue *Event // emitted when the frame pops (Critical release)
}

// NewStream instantiates the program for thread tid of n. The seed
// determines all randomness; streams with equal (program, tid, n, seed)
// are identical.
func NewStream(p *Program, tid, n int, seed uint64) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 1 || tid < 0 || tid >= n {
		return nil, fmt.Errorf("workload: thread %d of %d invalid", tid, n)
	}
	s := &Stream{
		tid: tid,
		n:   n,
		// Mix the thread id into the seed so threads diverge.
		rng: RNG{state: seed ^ (uint64(tid)+1)*0xA24BAED4963EE407},
	}
	s.stack = append(s.stack, frame{steps: p.Steps, times: 1})
	return s, nil
}

// Thread returns (tid, nThreads).
func (s *Stream) Thread() (int, int) { return s.tid, s.n }

// Next returns the next event. After the program ends it keeps returning
// EvDone.
func (s *Stream) Next() Event {
	for {
		if ev, ok := s.kern.next(s); ok {
			return ev
		}
		if len(s.stack) == 0 {
			s.done = true
			return Event{Kind: EvDone}
		}
		top := &s.stack[len(s.stack)-1]
		if top.idx >= len(top.steps) {
			if top.times > 1 {
				top.times--
				top.idx = 0
				continue
			}
			ep := top.epilogue
			s.stack = s.stack[:len(s.stack)-1]
			if ep != nil {
				return *ep
			}
			continue
		}
		st := top.steps[top.idx]
		top.idx++
		switch st := st.(type) {
		case Barrier:
			return Event{Kind: EvBarrier, ID: int32(st.ID)}
		case Compute:
			n := st.N
			if st.Divide {
				n = divideWork(n, s.n)
			}
			if n <= 0 {
				continue
			}
			return Event{
				Kind:     EvCompute,
				N:        int32(n),
				FP:       int32(float64(n) * st.FPFrac),
				Branches: int32(float64(n) * st.BranchFrac),
			}
		case Kernel:
			s.kern.reset(st, s)
		case Critical:
			s.stack = append(s.stack, frame{
				steps:    st.Body,
				times:    1,
				epilogue: &Event{Kind: EvLockRel, ID: int32(st.Lock)},
			})
			return Event{Kind: EvLockAcq, ID: int32(st.Lock)}
		case Loop:
			if st.Times > 0 {
				s.stack = append(s.stack, frame{steps: st.Body, times: st.Times})
			}
		case Serial:
			if s.tid == 0 {
				s.stack = append(s.stack, frame{steps: st.Body, times: 1})
			}
		}
	}
}

// NextBatch fills buf with the stream's next events — exactly the
// sequence repeated Next calls would deliver — and returns the count
// (at least 1 for a non-empty buf). It returns early when the program
// ends, with the trailing EvDone included, so callers can treat a short
// batch ending in EvDone as terminal. Kernel leaves are drained through
// a specialized inner loop, which is what makes batching cheaper than
// one interface call per event; sync events are delivered in place, not
// batch-terminated, because event generation is independent of engine
// scheduling.
func (s *Stream) NextBatch(buf []Event) int {
	n := 0
	for n < len(buf) {
		if s.kern.remaining > 0 {
			n += s.kern.fill(s, buf[n:])
			if n == len(buf) {
				return n
			}
		}
		ev := s.Next()
		buf[n] = ev
		n++
		if ev.Kind == EvDone {
			return n
		}
	}
	return n
}

// Done reports whether the stream has delivered EvDone.
func (s *Stream) Done() bool { return s.done }

// divideWork splits total units across n threads, giving every thread at
// least one unit when total is positive.
func divideWork(total, n int) int {
	per := total / n
	if per == 0 && total > 0 {
		per = 1
	}
	return per
}

// kernelEmitter interleaves compute bursts with memory accesses.
type kernelEmitter struct {
	k         Kernel
	remaining int
	base      uint64
	size      uint64
	cursor    uint64
	hotBase   uint64
	hotBytes  uint64
	// pendingAccess is set when the compute burst before an access has
	// been emitted and the access itself is due.
	pendingAccess bool
	// fpTab/brTab map a burst length to its FP and branch instruction
	// counts — int32(float64(n) * frac) precomputed for every burst
	// length the ±50% jitter can produce, so the per-event path trades
	// two float multiplies and conversions for two small-table loads.
	fpTab, brTab []int32
	// fill's per-kernel constants: the address mode, whether its word
	// indices reduce by mask (see reduce), the Bernoulli thresholds of
	// HotFrac and WriteFrac (see threshold), and the 8-byte words in the
	// hot window and in the whole window.
	mode            int
	mask            bool
	hotT, writeT    uint64
	hotSlots, slots uint64
}

// reset starts the emitter on kernel k for stream s. The kernel's start
// draws what it always has — the jitter factor, when Jitter > 0 — and
// nothing else; a kernel with no accesses for this thread leaves the
// emitter inactive.
func (e *kernelEmitter) reset(k Kernel, s *Stream) {
	count := k.Accesses
	if k.Divide {
		count = divideWork(count, s.n)
	}
	if k.Jitter > 0 {
		// Deterministic per-thread imbalance in [1-Jitter, 1+Jitter).
		f := 1 + k.Jitter*(2*s.rng.Float64()-1)
		count = int(float64(count) * f)
	}
	if count <= 0 {
		return
	}
	base, size := k.Region.window(s.tid, s.n)
	*e = kernelEmitter{
		k: k, remaining: count, base: base, size: size,
		writeT: threshold(k.WriteFrac),
		slots:  max(size/8, 1),
	}
	if k.HotFrac > 0 {
		e.hotBytes = k.hotWindow(size)
		// Each thread's hot window sits at its own offset so threads do
		// not fight over one set of lines even in Shared regions (a tree
		// walk mostly touches the thread's own subtree). Offsets wrap when
		// the region cannot fit every thread's window disjointly.
		span := size - e.hotBytes + 8
		e.hotBase = base + (uint64(s.tid)*e.hotBytes)%span
		e.hotBase &^= 7
		e.hotT = threshold(k.HotFrac)
		e.hotSlots = e.hotBytes / 8
	}
	if k.StrideBytes > 0 {
		// Start each thread at a stable per-thread offset: re-executions of
		// the same kernel (timestep loops) rescan the same strip, which is
		// what gives iterative codes their inter-timestep cache reuse — the
		// aggregate-L1-capacity effect depends on it.
		e.cursor = (uint64(s.tid) * 0x9E3779B9) % size
		e.cursor &^= 7
	}
	if k.ComputePerMem > 0 {
		e.fpTab, e.brTab = s.burstTables(k)
	}
	pow2 := func(n uint64) bool { return n&(n-1) == 0 }
	switch hot, strided := e.hotBytes > 0, k.StrideBytes > 0; {
	case hot && strided:
		e.mode, e.mask = modeHotStrided, pow2(e.hotSlots)
	case hot:
		// Both windows index through one reduction, so it masks only if
		// both word counts allow it.
		e.mode, e.mask = modeHotRandom, pow2(e.hotSlots) && pow2(e.slots)
	case strided:
		e.mode = modeStrided
	default:
		e.mode, e.mask = modeRandom, pow2(e.slots)
	}
}

// burstTable is one kernel shape's fpTab and brTab, keyed by the bits of
// the three fields they are computed from.
type burstTable struct {
	cpm, fpFrac, brFrac uint64
	fpTab, brTab        []int32
}

// burstTables returns the FP and branch tables for k's shape, building
// them on the shape's first use in this stream. Burst lengths are
// int32(ComputePerMem*(0.5+f)) with f in [0,1), so they never exceed
// int(ComputePerMem*1.5)+1.
func (s *Stream) burstTables(k Kernel) (fpTab, brTab []int32) {
	key := burstTable{
		cpm:    math.Float64bits(k.ComputePerMem),
		fpFrac: math.Float64bits(k.FPFrac),
		brFrac: math.Float64bits(k.BranchFrac),
	}
	for _, t := range s.tables {
		if t.cpm == key.cpm && t.fpFrac == key.fpFrac && t.brFrac == key.brFrac {
			return t.fpTab, t.brTab
		}
	}
	m := int(k.ComputePerMem*1.5) + 2
	tab := make([]int32, 2*m)
	key.fpTab, key.brTab = tab[:m:m], tab[m:]
	for i := range key.fpTab {
		key.fpTab[i] = int32(float64(i) * k.FPFrac)
		key.brTab[i] = int32(float64(i) * k.BranchFrac)
	}
	s.tables = append(s.tables, key)
	return key.fpTab, key.brTab
}

func (e *kernelEmitter) next(s *Stream) (Event, bool) {
	if e.remaining <= 0 {
		return Event{}, false
	}
	if !e.pendingAccess && e.k.ComputePerMem > 0 {
		// Burst length jitters ±50% around the mean for irregularity.
		n := int32(e.k.ComputePerMem * (0.5 + s.rng.Float64()))
		e.pendingAccess = true
		if n > 0 {
			return Event{
				Kind:     EvCompute,
				N:        n,
				FP:       e.fpTab[n],
				Branches: e.brTab[n],
			}, true
		}
	}
	e.pendingAccess = false
	e.remaining--
	var addr uint64
	switch {
	case e.hotBytes > 0 && s.rng.Float64() < e.k.HotFrac:
		// Temporal-locality hit in the per-thread hot window.
		addr = e.hotBase + uint64(s.rng.Intn(int(e.hotBytes/8)))*8
	case e.k.StrideBytes > 0:
		addr = e.base + e.cursor
		e.cursor = (e.cursor + uint64(e.k.StrideBytes)) % e.size
	default:
		slots := e.size / 8
		if slots == 0 {
			slots = 1
		}
		addr = e.base + uint64(s.rng.Intn(int(slots)))*8
	}
	kind := EvLoad
	if s.rng.Float64() < e.k.WriteFrac {
		kind = EvStore
	}
	return Event{Kind: kind, Addr: addr}, true
}

// golden is splitmix64's state increment (see RNG.Uint64).
const golden = 0x9E3779B97F4A7C15

// splitmix is RNG.Uint64's output function: RNG.Uint64 adds golden to
// the state and returns splitmix of the result.
func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// threshold returns the integer T for which a draw u makes
// float64(u>>11)*0x1p-53 < p (RNG.Float64() < p) exactly when u>>11 < T.
// The compare is exact arithmetic on both sides: u>>11 is below 2^53, so
// its conversion is exact, and scaling by a power of two only moves the
// exponent. So it reads x·2^-53 < p, that is x < p·2^53, and for an
// integer x that is x < ⌈p·2^53⌉. A p that is not above 0 (NaN included)
// never passes the float compare, and gets 0.
func threshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	return uint64(math.Ceil(p * 0x1p53))
}

// bernoulli is 1 when draw u passes threshold t and 0 otherwise. u>>11
// and t are at most 2^53, so the difference wraps past 2^63 exactly when
// u>>11 < t.
func bernoulli(u, t uint64) uint64 { return (u>>11 - t) >> 63 }

// pick returns a where mask is all ones and b where it is zero.
func pick(mask, a, b uint64) uint64 { return b ^ (a^b)&mask }

// reduce maps draw u to a word index below n as RNG.Intn does. u%n
// equals u&(n-1) for a power-of-two n, so mask only picks the cheaper
// instruction; reset decides it once per kernel.
func reduce(u, n uint64, mask bool) uint64 {
	if mask {
		return u & (n - 1)
	}
	return u % n
}

// Address modes of fill, fixed per kernel: cold accesses go to a random
// word or follow the stride, and a kernel with a hot window sends some
// accesses there instead.
const (
	modeRandom = iota
	modeStrided
	modeHotRandom
	modeHotStrided
)

// fill is the batch counterpart of next: it writes as many of the
// emitter's remaining events as fit into buf and returns how many. It
// delivers next's events and leaves the generator where next would —
// the same draws in the same order — but it keeps the generator state
// in a register for the whole batch, decides each Bernoulli draw with
// an integer compare (threshold) and chooses load or store, and hot or
// cold address, with selects instead of branches: those decisions are
// coin flips a branch predictor cannot learn.
//
// next draws the hot-window address only for a hot access. In the
// hot+strided mode fill computes it on every access, from the state one
// step ahead, and advances the state past it only for a hot access, so
// the draw sequence is next's.
func (e *kernelEmitter) fill(s *Stream, buf []Event) int {
	// Only the state that changes per event lives in locals; the loop
	// reads the kernel's constants through e, which keeps st, the
	// generator state, in a register instead of spilled to the stack.
	st := s.rng.state
	remaining, cursor, pending := e.remaining, e.cursor, e.pendingAccess
	n := 0
	for n < len(buf) && remaining > 0 {
		if !pending && e.k.ComputePerMem > 0 {
			// Burst length jitters ±50% around the mean for irregularity.
			st += golden
			cnt := int32(e.k.ComputePerMem * (0.5 + float64(splitmix(st)>>11)*0x1p-53))
			if cnt > 0 {
				buf[n] = Event{Kind: EvCompute, N: cnt, FP: e.fpTab[cnt], Branches: e.brTab[cnt]}
				n++
				if n == len(buf) {
					pending = true
					break
				}
			}
		}
		pending = false
		remaining--
		var addr uint64
		switch e.mode {
		case modeRandom:
			st += golden
			addr = e.base + reduce(splitmix(st), e.slots, e.mask)*8
		case modeStrided:
			addr = e.base + cursor
			cursor += uint64(e.k.StrideBytes)
		case modeHotRandom:
			// Hot or cold, the access draws one word index; only the
			// window it indexes differs.
			st += golden
			hot := -bernoulli(splitmix(st), e.hotT)
			st += golden
			addr = pick(hot, e.hotBase, e.base) + reduce(splitmix(st), pick(hot, e.hotSlots, e.slots), e.mask)*8
		case modeHotStrided:
			st += golden
			hot := -bernoulli(splitmix(st), e.hotT)
			w := reduce(splitmix(st+golden), e.hotSlots, e.mask)
			st += golden & hot
			addr = pick(hot, e.hotBase+w*8, e.base+cursor)
			cursor += uint64(e.k.StrideBytes) &^ hot
		}
		// Only the strided modes move the cursor past the window's end
		// (in the others it stays 0). With stride <= size one
		// subtraction wraps it; the general modulo remains for the
		// degenerate stride > size case.
		if cursor >= e.size {
			if uint64(e.k.StrideBytes) > e.size {
				cursor %= e.size
			} else {
				cursor -= e.size
			}
		}
		st += golden
		// EvStore follows EvLoad.
		buf[n] = Event{Kind: EvLoad + EventKind(bernoulli(splitmix(st), e.writeT)), Addr: addr}
		n++
	}
	s.rng.state = st
	e.remaining, e.cursor, e.pendingAccess = remaining, cursor, pending
	return n
}

// CountEvents drains a fresh stream and returns per-kind event counts and
// the total instruction count. Intended for tests and workload validation,
// not the simulation hot path.
func CountEvents(p *Program, tid, n int, seed uint64, limit int) (map[EventKind]int, int64, error) {
	s, err := NewStream(p, tid, n, seed)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[EventKind]int)
	var instr int64
	for i := 0; i < limit; i++ {
		ev := s.Next()
		counts[ev.Kind]++
		instr += ev.Instructions()
		if ev.Kind == EvDone {
			return counts, instr, nil
		}
	}
	return nil, 0, fmt.Errorf("workload: program %q did not finish within %d events", p.Name, limit)
}

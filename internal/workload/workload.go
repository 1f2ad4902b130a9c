// Package workload defines the intermediate representation for synthetic
// parallel programs and compiles it into per-thread event streams that the
// core timing model executes.
//
// A Program is a small tree of steps — compute bursts, memory kernels,
// barriers, critical sections, loops, serial sections — shared by all
// threads. Each thread instantiates its own Stream with a deterministic
// PRNG, so a simulation is bit-reproducible for a given seed. The
// SPLASH-2 application models (internal/splash) are expressed entirely in
// this IR.
package workload

import (
	"fmt"
	"math"
)

// ValidationError is the typed failure of Program.Validate: one
// structurally invalid step (or a program-level defect). Callers that
// build programs dynamically — the JSON loader, the mix scheduler — can
// pick out the offending step instead of string-matching.
type ValidationError struct {
	// Program is the program's name ("" when the name itself is the
	// defect).
	Program string
	// Step is the index of the offending step within its enclosing step
	// list, or -1 for program-level defects.
	Step int
	// Msg is the human-readable description.
	Msg string
}

// Error implements error.
func (e *ValidationError) Error() string { return e.Msg }

// RNG is a splitmix64 pseudo-random generator: tiny, fast, and stable
// across platforms (determinism is a design requirement; see DESIGN.md).
type RNG struct{ state uint64 }

// NewRNG seeds a generator. Distinct seeds yield independent streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1). Scaling by the constant
// 0x1p-53 is exact (a power-of-two factor only shifts the exponent), so
// the value is bit-identical to dividing by 1<<53 — without the hardware
// divide on the event-generation hot path.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform value in [0, n). n must be positive: a
// non-positive n is a programmer error (there is no sensible value to
// return), so Intn panics rather than returning a typed error — this is
// the documented exception to the package's error discipline.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	if n&(n-1) == 0 {
		// Power-of-two range: the modulo is a mask (identical value, no
		// hardware divide — this sits on the event-generation hot path).
		return int(r.Uint64() & uint64(n-1))
	}
	return int(r.Uint64() % uint64(n))
}

// EventKind discriminates the events a thread stream produces.
type EventKind uint8

// Stream event kinds.
const (
	// EvCompute is a burst of N non-memory instructions.
	EvCompute EventKind = iota
	// EvLoad is one load from Addr.
	EvLoad
	// EvStore is one store to Addr.
	EvStore
	// EvBarrier is an arrival at barrier ID.
	EvBarrier
	// EvLockAcq acquires lock ID.
	EvLockAcq
	// EvLockRel releases lock ID.
	EvLockRel
	// EvDone marks the end of the thread's program.
	EvDone
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvCompute:
		return "compute"
	case EvLoad:
		return "load"
	case EvStore:
		return "store"
	case EvBarrier:
		return "barrier"
	case EvLockAcq:
		return "lock-acquire"
	case EvLockRel:
		return "lock-release"
	case EvDone:
		return "done"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one unit of work delivered to the core model. The struct is
// deliberately 32 bytes: event buffers are the engine's highest-volume
// data stream, and the narrow counters (a compute burst is a handful of
// instructions; object ids are small) halve the store traffic of event
// generation and the cache footprint of the per-core batch buffers
// compared to word-sized fields.
type Event struct {
	Addr     uint64 // EvLoad/EvStore: byte address
	N        int32  // EvCompute: instructions in the burst
	FP       int32  // EvCompute: floating-point instructions among N
	Branches int32  // EvCompute: branch instructions among N
	ID       int32  // EvBarrier/EvLockAcq/EvLockRel: object id
	Kind     EventKind
}

// Instructions returns how many dynamic instructions the event represents.
func (e Event) Instructions() int64 {
	switch e.Kind {
	case EvCompute:
		return int64(e.N)
	case EvLoad, EvStore:
		return 1
	case EvBarrier, EvLockAcq, EvLockRel:
		return 1 // the synchronization instruction itself
	}
	return 0
}

// Scope says how a memory region is shared among threads.
type Scope uint8

// Region scopes.
const (
	// Shared: every thread addresses the same Size bytes.
	Shared Scope = iota
	// Partition: each thread addresses its 1/nThreads slice of Size bytes.
	Partition
	// PerThread: each thread gets its own disjoint copy of Size bytes.
	PerThread
)

// Region is a range of the simulated address space.
type Region struct {
	Base  uint64
	Size  uint64 // bytes; must be positive
	Scope Scope
}

// window returns the byte range thread tid of n addresses.
func (r Region) window(tid, n int) (base, size uint64) {
	switch r.Scope {
	case Partition:
		sz := r.Size / uint64(n)
		if sz < 8 {
			sz = 8
		}
		return r.Base + uint64(tid)*sz, sz
	case PerThread:
		return r.Base + uint64(tid)*r.Size, r.Size
	default:
		return r.Base, r.Size
	}
}

// Step is one node of a thread program. The concrete types below are the
// only implementations.
type Step interface{ isStep() }

// Compute is a burst of non-memory work.
type Compute struct {
	N          int     // total instructions (divided among threads if Divide)
	FPFrac     float64 // fraction that are floating-point
	BranchFrac float64 // fraction that are branches
	Divide     bool    // split N across threads
}

// Kernel interleaves compute with memory accesses over a region — the
// workhorse step for modeling application loops.
//
// Temporal locality is modeled with a per-thread hot window: with
// probability HotFrac an access lands in the first HotBytes of the
// thread's window (which, sized under the L1, mostly hits), otherwise it
// follows the cold pattern (strided or random over the whole window).
// Real codes hit their L1s on the vast majority of accesses; leaving
// HotFrac at zero models pathological streaming. The hot window is
// capped at the thread's window and must hold at least one 8-byte word.
type Kernel struct {
	Accesses      int     // total memory accesses (divided if Divide)
	ComputePerMem float64 // mean non-memory instructions between accesses, at most 65536
	FPFrac        float64
	BranchFrac    float64
	WriteFrac     float64 // fraction of accesses that are stores
	Region        Region
	StrideBytes   int     // >0: sequential strided; 0: random
	HotFrac       float64 // fraction of accesses hitting the hot window
	HotBytes      uint64  // hot window size (0 with HotFrac>0 => 16 KB)
	Jitter        float64 // per-thread work imbalance in [0,1)
	Divide        bool
}

// hotWindow is the size of the hot window in a thread window of size
// bytes: HotBytes (16 KB when zero), capped at the window.
func (k Kernel) hotWindow(size uint64) uint64 {
	hot := k.HotBytes
	if hot == 0 {
		hot = 16 << 10
	}
	return min(hot, size)
}

// Barrier synchronizes all threads.
type Barrier struct{ ID int }

// Critical wraps Body in lock Lock.
type Critical struct {
	Lock int
	Body []Step
}

// Loop repeats Body Times times.
type Loop struct {
	Times int
	Body  []Step
}

// Serial executes Body on thread 0 only; other threads skip it (programs
// normally follow a Serial with a Barrier).
type Serial struct{ Body []Step }

func (Compute) isStep()  {}
func (Kernel) isStep()   {}
func (Barrier) isStep()  {}
func (Critical) isStep() {}
func (Loop) isStep()     {}
func (Serial) isStep()   {}

// Program is a named tree of steps executed by every thread.
type Program struct {
	Name  string
	Steps []Step
}

// Validate checks structural soundness: counts that are non-negative and
// fit an event, valid fractions, ids in [0, maxSyncID], sensible regions. Failures are *ValidationError
// values carrying the offending step index.
func (p *Program) Validate() error {
	if p.Name == "" {
		return &ValidationError{Step: -1, Msg: "workload: program needs a name"}
	}
	if err := validateSteps(p.Steps, 0); err != nil {
		err.Program = p.Name
		return err
	}
	return nil
}

// stepErr builds a ValidationError for step i.
func stepErr(i int, format string, args ...any) *ValidationError {
	return &ValidationError{Step: i, Msg: fmt.Sprintf(format, args...)}
}

// maxComputePerMem bounds Kernel.ComputePerMem. A stream tabulates the
// FP and branch counts of every burst length a kernel can draw, up to
// 1.5×ComputePerMem; the bound keeps those tables small and every burst
// length well inside the int32 an event carries. Longer stretches of
// compute belong in a Compute step.
const maxComputePerMem = 1 << 16

// maxSyncID bounds Barrier.ID and Critical.Lock. The engine sizes its
// barrier and lock tables by the largest id a program uses, and an event
// carries the id as an int32, so an unbounded id would ask for gigabytes
// of table or alias another id. The catalog models use barrier ids 0–2
// and lock id 0.
const maxSyncID = 1<<16 - 1

func validateSteps(steps []Step, depth int) *ValidationError {
	if depth > 32 {
		return &ValidationError{Step: -1, Msg: "workload: step nesting too deep"}
	}
	for i, s := range steps {
		switch s := s.(type) {
		case Compute:
			// An event carries the count as an int32.
			if s.N < 0 || s.N > math.MaxInt32 {
				return stepErr(i, "workload: step %d: compute count %d outside [0, %d]", i, s.N, math.MaxInt32)
			}
			if err := checkFrac(i, "FPFrac", s.FPFrac); err != nil {
				return err
			}
			if err := checkFrac(i, "BranchFrac", s.BranchFrac); err != nil {
				return err
			}
		case Kernel:
			if s.Accesses < 0 {
				return stepErr(i, "workload: step %d: negative access count", i)
			}
			if !(s.ComputePerMem >= 0 && s.ComputePerMem <= maxComputePerMem) {
				return stepErr(i, "workload: step %d: ComputePerMem %g outside [0, %d]", i, s.ComputePerMem, maxComputePerMem)
			}
			if s.Region.Size == 0 {
				return stepErr(i, "workload: step %d: empty region", i)
			}
			if s.StrideBytes < 0 {
				return stepErr(i, "workload: step %d: negative stride", i)
			}
			for _, f := range []struct {
				n string
				v float64
			}{{"FPFrac", s.FPFrac}, {"BranchFrac", s.BranchFrac}, {"WriteFrac", s.WriteFrac}} {
				if err := checkFrac(i, f.n, f.v); err != nil {
					return err
				}
			}
			if !(s.Jitter >= 0 && s.Jitter < 1) {
				return stepErr(i, "workload: step %d: jitter %g outside [0,1)", i, s.Jitter)
			}
			if err := checkFrac(i, "HotFrac", s.HotFrac); err != nil {
				return err
			}
			// The hot window must hold an 8-byte word at every thread
			// count. A Shared or PerThread window is the region at any
			// count, and a Partition window never falls below 8 bytes, so
			// the one-thread window decides.
			if _, w := s.Region.window(0, 1); s.HotFrac > 0 && s.hotWindow(w) < 8 {
				return stepErr(i, "workload: step %d: hot window of %d bytes holds no 8-byte word", i, s.hotWindow(w))
			}
		case Barrier:
			if s.ID < 0 || s.ID > maxSyncID {
				return stepErr(i, "workload: step %d: barrier id %d outside [0, %d]", i, s.ID, maxSyncID)
			}
		case Critical:
			if s.Lock < 0 || s.Lock > maxSyncID {
				return stepErr(i, "workload: step %d: lock id %d outside [0, %d]", i, s.Lock, maxSyncID)
			}
			if err := validateSteps(s.Body, depth+1); err != nil {
				return err
			}
		case Loop:
			if s.Times < 0 {
				return stepErr(i, "workload: step %d: negative loop count", i)
			}
			if err := validateSteps(s.Body, depth+1); err != nil {
				return err
			}
		case Serial:
			if err := validateSteps(s.Body, depth+1); err != nil {
				return err
			}
		default:
			return stepErr(i, "workload: step %d: unknown step type %T", i, s)
		}
	}
	return nil
}

func checkFrac(step int, name string, v float64) *ValidationError {
	if !(v >= 0 && v <= 1) {
		return stepErr(step, "workload: %s %g outside [0,1]", name, v)
	}
	return nil
}

// MaxBarrierID returns the largest barrier id in the program, or -1.
func (p *Program) MaxBarrierID() int { return maxID(p.Steps, true) }

// MaxLockID returns the largest lock id in the program, or -1.
func (p *Program) MaxLockID() int { return maxID(p.Steps, false) }

func maxID(steps []Step, barrier bool) int {
	m := -1
	for _, s := range steps {
		switch s := s.(type) {
		case Barrier:
			if barrier && s.ID > m {
				m = s.ID
			}
		case Critical:
			if !barrier && s.Lock > m {
				m = s.Lock
			}
			if v := maxID(s.Body, barrier); v > m {
				m = v
			}
		case Loop:
			if v := maxID(s.Body, barrier); v > m {
				m = v
			}
		case Serial:
			if v := maxID(s.Body, barrier); v > m {
				m = v
			}
		}
	}
	return m
}

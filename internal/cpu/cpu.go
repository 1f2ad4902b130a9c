// Package cpu models one Alpha-21264-class processor core at the fidelity
// the paper's evaluation consumes: a 4-wide machine whose compute
// throughput is dependence-limited, whose branches pay a misprediction
// penalty, and whose memory accesses run through the coherent hierarchy
// with partial miss overlap (out-of-order execution and a store buffer
// hide part of the latency).
//
// The model charges time in fractional cycles and counts per-structure
// accesses for the Wattch-style power accounting (internal/power).
package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"cmppower/internal/check"
	"cmppower/internal/floorplan"
	"cmppower/internal/workload"
)

// MemSystem is the interface the core uses to reach the cache hierarchy.
// internal/cache.Hierarchy implements it.
type MemSystem interface {
	// Access performs a data access and returns the completion cycle.
	Access(core int, addr uint64, write bool, now float64) float64
}

// Config holds the core's microarchitectural parameters. Per-application
// fields (IPCNonMem, IL1MissRate) come from the workload model; the rest
// are EV6-class constants.
type Config struct {
	// IssueWidth bounds IPCNonMem (EV6: 4).
	IssueWidth int
	// IPCNonMem is the dependence-limited IPC of non-memory instructions.
	IPCNonMem float64
	// BranchMissRate is the fraction of branches mispredicted.
	BranchMissRate float64
	// BranchPenaltyCycles is the pipeline refill cost per misprediction.
	BranchPenaltyCycles float64
	// IL1MissRate is the instruction-cache miss rate per instruction;
	// each miss costs one L2 round trip (code is L2-resident).
	IL1MissRate float64
	// IL1MissCycles is the cost of one instruction-fetch miss.
	IL1MissCycles float64
	// FetchWidth groups instructions per I-cache access.
	FetchWidth int
	// LoadMissOverlap is the fraction of a load's beyond-L1 latency hidden
	// by out-of-order execution and MLP.
	LoadMissOverlap float64
	// StoreMissOverlap is the fraction of a store's beyond-L1 latency
	// hidden by the store buffer.
	StoreMissOverlap float64
	// L1HitCycles must match the hierarchy's L1 latency; it is the
	// un-hideable part of every access.
	L1HitCycles float64
	// SpeedRatio slows this core relative to the chip's reference clock,
	// in (0, 1]; 0 means 1 (lock-step with the reference). The engine
	// keeps one global clock in reference cycles, so a slower core's
	// local work is dilated by 1/SpeedRatio while beyond-L1 memory
	// latency — set by the uncore, not the core — stays undilated. This
	// is how scenario DVFS domains and little cores enter the engine
	// without a second clock domain.
	SpeedRatio float64
}

// DefaultConfig returns EV6-class constants with a generic workload mix.
func DefaultConfig() Config {
	return Config{
		IssueWidth:          4,
		IPCNonMem:           2.0,
		BranchMissRate:      0.05,
		BranchPenaltyCycles: 7,
		IL1MissRate:         0.001,
		IL1MissCycles:       12,
		FetchWidth:          4,
		LoadMissOverlap:     0.3,
		StoreMissOverlap:    0.8,
		L1HitCycles:         2,
	}
}

// Validate checks the configuration. A float field that is NaN, infinite
// or out of range fails with a *check.Error naming it.
func (c Config) Validate() error {
	maxF := math.MaxFloat64
	switch {
	case c.IssueWidth < 1:
		return fmt.Errorf("cpu: issue width %d", c.IssueWidth)
	case !(c.IPCNonMem > 0 && c.IPCNonMem <= float64(c.IssueWidth)):
		return check.Fail("IPCNonMem", c.IPCNonMem, "cpu: IPCNonMem %g outside (0, %d]", c.IPCNonMem, c.IssueWidth)
	case !check.In(c.BranchMissRate, 0, 1):
		return check.Fail("BranchMissRate", c.BranchMissRate, "cpu: branch miss rate %g", c.BranchMissRate)
	case !check.In(c.BranchPenaltyCycles, 0, maxF):
		return check.Fail("BranchPenaltyCycles", c.BranchPenaltyCycles, "cpu: branch penalty %g", c.BranchPenaltyCycles)
	case !check.In(c.IL1MissRate, 0, 1):
		return check.Fail("IL1MissRate", c.IL1MissRate, "cpu: IL1 miss rate %g", c.IL1MissRate)
	case !check.In(c.IL1MissCycles, 0, maxF):
		return check.Fail("IL1MissCycles", c.IL1MissCycles, "cpu: IL1 miss cost %g", c.IL1MissCycles)
	case c.FetchWidth < 1:
		return fmt.Errorf("cpu: fetch width %d", c.FetchWidth)
	case !(c.LoadMissOverlap >= 0 && c.LoadMissOverlap < 1):
		return check.Fail("LoadMissOverlap", c.LoadMissOverlap, "cpu: load overlap %g outside [0,1)", c.LoadMissOverlap)
	case !(c.StoreMissOverlap >= 0 && c.StoreMissOverlap < 1):
		return check.Fail("StoreMissOverlap", c.StoreMissOverlap, "cpu: store overlap %g outside [0,1)", c.StoreMissOverlap)
	case !(c.L1HitCycles > 0 && check.Finite(c.L1HitCycles)):
		return check.Fail("L1HitCycles", c.L1HitCycles, "cpu: L1 hit cycles %g", c.L1HitCycles)
	case !check.In(c.SpeedRatio, 0, 1):
		return check.Fail("SpeedRatio", c.SpeedRatio, "cpu: speed ratio %g outside (0,1]", c.SpeedRatio)
	}
	return nil
}

// Stats are the core's accumulated performance counters.
type Stats struct {
	Instructions  int64
	ComputeCycles float64
	MemCycles     float64 // cycles charged to data accesses (post-overlap)
	BranchCycles  float64 // misprediction penalty cycles
	FetchCycles   float64 // instruction-miss cycles
	Loads, Stores int64
	IL1Accesses   int64
	IL1Misses     float64 // statistical, hence fractional
	SyncEvents    int64
	IdleCycles    float64 // time parked at barriers/locks
	FinishClock   float64
}

// Core is one processor's timing and activity state.
type Core struct {
	ID    int
	cfg   Config
	clock float64
	stats Stats
	// unit activity counters, indexed by floorplan.Unit. Each quantity
	// is counted once: the slot of a unit whose count always equals a
	// Stats counter stays zero, and Activity reads that counter.
	activity [floorplan.UnitBus + 1]int64
	// memOps counts loads (index 0) and stores (index 1), indexed by the
	// write flag; Stats reports them as Loads and Stores.
	memOps [2]int64
	// keep is 1 - LoadMissOverlap and 1 - StoreMissOverlap, indexed the
	// same way: the share of an access's beyond-L1 latency the core pays.
	keep [2]float64
	// Hot-path constants derived from cfg at construction: the front end
	// is charged once per event, so the per-call division and multiply
	// are precomputed (bit-identically — see chargeFrontEnd).
	fetchShift uint
	fetchPow2  bool
	missStall1 float64 // IL1MissRate * IL1MissCycles * dilate, the n=1 fetch stall
	// dilate is 1/SpeedRatio: core-local charges (compute, branch,
	// fetch stalls, sync, the L1-hit slice of memory) are stretched by
	// it so a half-speed core spends twice the reference cycles on its
	// own work. At SpeedRatio 1 every multiply is ×1.0, which IEEE-754
	// guarantees exact, so homogeneous chips are bit-identical to the
	// pre-dilation model.
	dilate float64
	// hitCharge is L1HitCycles * dilate, the un-hideable local slice of
	// every data access.
	hitCharge float64
	// cycleTab[n] caches float64(n)/IPCNonMem*dilate for short bursts:
	// the same division, performed once at construction, so the
	// per-event cost is a table load instead of an FP divide. Entries
	// are bit-identical to computing on the spot.
	cycleTab [64]float64
}

// New builds a core.
func New(id int, cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 0 {
		return nil, fmt.Errorf("cpu: negative core id %d", id)
	}
	c := &Core{ID: id, cfg: cfg}
	c.fetchPow2 = cfg.FetchWidth&(cfg.FetchWidth-1) == 0
	c.fetchShift = uint(bits.TrailingZeros(uint(cfg.FetchWidth)))
	c.dilate = 1
	if cfg.SpeedRatio != 0 {
		c.dilate = 1 / cfg.SpeedRatio
	}
	c.missStall1 = cfg.IL1MissRate * cfg.IL1MissCycles * c.dilate
	c.hitCharge = cfg.L1HitCycles * c.dilate
	c.keep = [2]float64{1 - cfg.LoadMissOverlap, 1 - cfg.StoreMissOverlap}
	for n := range c.cycleTab {
		c.cycleTab[n] = float64(n) / cfg.IPCNonMem * c.dilate
	}
	return c, nil
}

// Clock returns the core's current absolute cycle.
func (c *Core) Clock() float64 { return c.clock }

// AdvanceTo parks the core until cycle t (barrier/lock wait). Time spent
// parked is recorded as idle.
func (c *Core) AdvanceTo(t float64) {
	if t > c.clock {
		c.stats.IdleCycles += t - c.clock
		c.clock = t
	}
}

// Stats returns a snapshot of the counters with FinishClock filled in.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Loads, s.Stores = c.memOps[0], c.memOps[1]
	s.FinishClock = c.clock
	return s
}

// Activity returns the access count of unit u. Every instruction passes
// once through fetch, rename, the window and the register file, each
// I-cache access is counted in IL1Accesses, and every load or store takes
// one LSQ slot, so those units report the counters that already hold
// their counts.
func (c *Core) Activity(u floorplan.Unit) int64 {
	switch u {
	case floorplan.UnitFetch, floorplan.UnitRename, floorplan.UnitWindow, floorplan.UnitRegfile:
		return c.stats.Instructions
	case floorplan.UnitIL1:
		return c.stats.IL1Accesses
	case floorplan.UnitLSQ:
		return c.memOps[0] + c.memOps[1]
	}
	return c.activity[u]
}

// burstCost is what a compute burst of n instructions costs in time,
// split the way the counters record it: the statistical I-cache misses
// and their fetch stall, the issue cycles, and the misprediction
// penalty. ExecComputeBurst, AdvanceCompute and ChargeCompute all take
// their numbers from here, so the clock and counter halves of a burst
// come from the same float operations.
func (c *Core) burstCost(n, branches int) (misses, fetchStall, cycles, penalty float64) {
	misses = float64(n) * c.cfg.IL1MissRate
	fetchStall = misses * c.cfg.IL1MissCycles * c.dilate
	if n < len(c.cycleTab) {
		cycles = c.cycleTab[n]
	} else {
		cycles = float64(n) / c.cfg.IPCNonMem * c.dilate
	}
	penalty = float64(branches) * c.cfg.BranchMissRate * c.cfg.BranchPenaltyCycles * c.dilate
	return misses, fetchStall, cycles, penalty
}

// chargeBurst adds one compute burst to the counters: front-end
// activity (fetch/decode/rename/issue and the I-cache), the functional
// units, and the cycle and instruction totals. It leaves the clock alone.
func (c *Core) chargeBurst(n, fp, branches int, misses, fetchStall, cycles, penalty float64) {
	c.activity[floorplan.UnitBpred] += int64(branches)
	var il1 int
	if c.fetchPow2 {
		il1 = (n + c.cfg.FetchWidth - 1) >> c.fetchShift
	} else {
		il1 = (n + c.cfg.FetchWidth - 1) / c.cfg.FetchWidth
	}
	c.stats.IL1Accesses += int64(il1)
	c.stats.IL1Misses += misses
	c.stats.FetchCycles += fetchStall
	ints := n - fp
	if ints < 0 {
		ints = 0
	}
	c.activity[floorplan.UnitIALU] += int64(ints)
	c.activity[floorplan.UnitFALU] += int64(fp)
	c.stats.ComputeCycles += cycles
	c.stats.BranchCycles += penalty
	c.stats.Instructions += int64(n)
}

// chargeFrontEndOne is the front-end share of chargeBurst for one
// instruction with no branches: the memory- and sync-event case. One
// instruction is one I-cache access regardless of fetch width,
// float64(1)*rate is exactly rate, and missStall1 is the same
// rate*IL1MissCycles product — so every counter and the clock move
// bit-identically to the general path.
func (c *Core) chargeFrontEndOne() {
	c.stats.IL1Accesses++
	c.stats.IL1Misses += c.cfg.IL1MissRate
	c.stats.FetchCycles += c.missStall1
	c.clock += c.missStall1
}

// ExecCompute executes a compute burst.
func (c *Core) ExecCompute(ev workload.Event) {
	if ev.Kind != workload.EvCompute {
		return
	}
	c.ExecComputeBurst(int(ev.N), int(ev.FP), int(ev.Branches))
}

// ExecComputeBurst is ExecCompute without the event envelope: the engine's
// fast path has already dispatched on the kind, so it passes the three
// fields directly instead of copying the whole event through the call.
func (c *Core) ExecComputeBurst(n, fp, branches int) {
	if n <= 0 {
		return
	}
	misses, fetchStall, cycles, penalty := c.burstCost(n, branches)
	c.chargeBurst(n, fp, branches, misses, fetchStall, cycles, penalty)
	c.clock += fetchStall
	c.clock += cycles + penalty
}

// AdvanceCompute is the clock half of ExecComputeBurst: it moves the
// clock exactly as ExecComputeBurst(n, fp, branches) would and touches
// no counter. A sampled engine run uses it to learn when a core's next
// shared event happens while deferring the counters; ChargeCompute
// later supplies the other half. The core ends bit-identical to
// ExecComputeBurst's as long as its charges follow the order of its
// advances and come before its next memory or sync event, whose front-end
// charges add to the same float counters.
func (c *Core) AdvanceCompute(n, branches int) {
	if n <= 0 {
		return
	}
	_, fetchStall, cycles, penalty := c.burstCost(n, branches)
	c.clock += fetchStall
	c.clock += cycles + penalty
}

// ChargeCompute is the counter half of ExecComputeBurst (see
// AdvanceCompute): every counter moves as ExecComputeBurst would move
// it, and the clock does not.
func (c *Core) ChargeCompute(n, fp, branches int) {
	if n <= 0 {
		return
	}
	misses, fetchStall, cycles, penalty := c.burstCost(n, branches)
	c.chargeBurst(n, fp, branches, misses, fetchStall, cycles, penalty)
}

// ExecMem executes one load or store through the memory system.
func (c *Core) ExecMem(ev workload.Event, ms MemSystem) {
	write := ev.Kind == workload.EvStore
	if !write && ev.Kind != workload.EvLoad {
		return
	}
	c.ExecLoadStore(ev.Addr, write, ms)
}

// ExecLoadStore is ExecMem after kind dispatch (see ExecComputeBurst).
func (c *Core) ExecLoadStore(addr uint64, write bool, ms MemSystem) {
	c.chargeFrontEndOne()
	// The hierarchy counts D-cache accesses itself; the core tracks the
	// instruction and the issue slot.
	done := ms.Access(c.ID, addr, write, c.clock)
	raw := done - c.clock
	if raw < c.cfg.L1HitCycles {
		raw = c.cfg.L1HitCycles
	}
	var w int
	if write {
		w = 1
	}
	// Only the L1-hit slice is local to the core clock; the beyond-L1
	// remainder is uncore latency already expressed in reference cycles.
	charged := c.hitCharge + (raw-c.cfg.L1HitCycles)*c.keep[w]
	c.stats.MemCycles += charged
	c.clock += charged
	c.stats.Instructions++
	c.memOps[w]++
}

// ExecSync charges the local cost of one synchronization instruction
// (barrier arrival, lock acquire/release): a handful of cycles and one
// trip through the front end and integer unit.
func (c *Core) ExecSync(cost float64) {
	c.chargeFrontEndOne()
	c.activity[floorplan.UnitIALU]++
	c.stats.SyncEvents++
	c.stats.Instructions++
	c.clock += cost * c.dilate
}

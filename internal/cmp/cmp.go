// Package cmp integrates the substrates into one simulated chip
// multiprocessor and runs parallel programs on it.
//
// The engine is event-driven at instruction granularity: the runnable core
// with the smallest local clock executes its next workload event, so all
// shared-resource interactions (bus arbitration, DRAM queueing, coherence,
// locks, barriers) are processed in global time order. The engine keeps
// one global clock at the chip's lead DVFS operating point, as the paper
// assumes (§3.1: global voltage/frequency scaling; unused cores are shut
// down); scenario chips with per-domain DVFS or little cores express a
// slower core as cpu.Config.SpeedRatio, which dilates that core's local
// charges in reference cycles without a second clock domain.
package cmp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cmppower/internal/cache"
	"cmppower/internal/cpu"
	"cmppower/internal/dvfs"
	"cmppower/internal/floorplan"
	"cmppower/internal/mem"
	"cmppower/internal/obs"
	"cmppower/internal/power"
	"cmppower/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// NCores is the number of active cores (threads) for the run.
	NCores int
	// TotalCores is the chip's physical core count (paper Table 1: 16);
	// cores beyond NCores are shut down. Power accounting sizes activity
	// records to TotalCores.
	TotalCores int
	// Point is the chip-wide operating point.
	Point dvfs.OperatingPoint
	// Core is the core configuration (per-application fields included).
	Core cpu.Config
	// PerCore optionally overrides Core per core index (multiprogrammed
	// mixes tune IPC/IL1 per job). Length must equal NCores when set.
	PerCore []cpu.Config
	// CacheOverride replaces the Table 1 hierarchy when non-nil.
	CacheOverride *cache.Config
	// MemLatencySec and MemOccupancySec configure the DRAM channel; zero
	// values select the defaults (75 ns latency per Table 1, 1.2 ns
	// occupancy).
	MemLatencySec   float64
	MemOccupancySec float64
	// ScaleMemoryWithChip applies the chip's DVFS ratio to the memory
	// channel too ("system-wide scaling", the analytical model's
	// assumption). Off by default, matching the paper's experiments.
	ScaleMemoryWithChip bool
	// Seed drives all workload randomness.
	Seed uint64
	// BarrierCycles is the release overhead after the last arrival.
	BarrierCycles float64
	// LockCycles is the cost of an uncontended acquire/release and of a
	// contended hand-off.
	LockCycles float64
	// MaxEvents bounds the run as a runaway guard (0 = default bound).
	MaxEvents int64
	// SampleCycles, when positive, records interval activity samples
	// roughly every SampleCycles chip cycles (event-aligned, so interval
	// lengths vary upward). Samples feed the transient thermal analysis.
	SampleCycles float64
	// TraceLast, when positive, records the last TraceLast executed events
	// into Result.Trace (a ring buffer). A traced run executes on the
	// event-at-a-time reference loop (see Unbatched); zero costs nothing.
	TraceLast int
	// PrefetchNextLine enables the hierarchy's next-line prefetcher
	// (extension A6; off in the paper's baseline configuration).
	PrefetchNextLine bool
	// ThriftyBarriers puts barrier waiters into a deep sleep state instead
	// of spinning (the paper's ref. [26], "The Thrifty Barrier"): their
	// wait cycles are recorded as sleep and charged at the meter's
	// SleepResidual instead of the clock-gate residual.
	ThriftyBarriers bool
	// Ctx, when non-nil, is polled at least once per event batch (at most
	// a few hundred events apart): a cancelled or expired context aborts
	// the run within one simulation step, returning the context's error.
	// Nil contexts cost nothing.
	Ctx context.Context
	// Unbatched selects the reference event-at-a-time core loop instead
	// of the fused fast path. The two produce bit-identical results
	// (engine equivalence tests; doctor check 10); the reference path
	// exists to prove that and to baseline benchmarks. Traced runs
	// (TraceLast > 0) take the reference loop whatever this says.
	Unbatched bool
	// CacheFault forwards a transient-error hook into the cache hierarchy
	// (see cache.FaultHook and internal/faults). Nil injects nothing.
	CacheFault cache.FaultHook
	// Metrics, when non-nil, receives a post-run publish of the engine's
	// counters (events, cycles, cache/bus/DRAM traffic, wait histograms).
	// The hot loops never touch it: publishing folds the run's already-kept
	// substrate counters into the registry once, after the result is
	// assembled, so a nil registry costs exactly one branch per run and the
	// simulated outcome is identical either way.
	Metrics *obs.Registry
}

// DefaultConfig returns a run configuration for n active cores on the
// 16-core Table 1 chip at operating point p.
func DefaultConfig(n int, p dvfs.OperatingPoint) Config {
	return Config{
		NCores:        n,
		TotalCores:    16,
		Point:         p,
		Core:          cpu.DefaultConfig(),
		Seed:          1,
		BarrierCycles: 40,
		LockCycles:    12,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NCores < 1 {
		return fmt.Errorf("cmp: NCores %d", c.NCores)
	}
	if c.TotalCores < c.NCores {
		return fmt.Errorf("cmp: TotalCores %d < NCores %d", c.TotalCores, c.NCores)
	}
	if c.Point.Freq <= 0 || c.Point.Volt <= 0 {
		return fmt.Errorf("cmp: invalid operating point %+v", c.Point)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if c.PerCore != nil {
		if len(c.PerCore) != c.NCores {
			return fmt.Errorf("cmp: PerCore has %d entries for %d cores", len(c.PerCore), c.NCores)
		}
		for i, cc := range c.PerCore {
			if err := cc.Validate(); err != nil {
				return fmt.Errorf("cmp: PerCore[%d]: %w", i, err)
			}
			if cc.L1HitCycles != c.Core.L1HitCycles {
				return fmt.Errorf("cmp: PerCore[%d] L1 hit latency differs", i)
			}
		}
	}
	if c.BarrierCycles < 0 || c.LockCycles < 0 {
		return errors.New("cmp: negative synchronization cost")
	}
	if c.MemLatencySec < 0 || c.MemOccupancySec < 0 {
		return errors.New("cmp: negative memory timing")
	}
	return nil
}

// Result is the outcome of one run.
type Result struct {
	// Cycles is the makespan in chip cycles (max over cores).
	Cycles float64
	// Seconds is the wall-clock execution time.
	Seconds float64
	// Instructions is the total dynamic instruction count.
	Instructions int64
	// Events is the number of engine events executed (compute bursts,
	// memory accesses, and synchronization operations).
	Events int64
	// Activity is the per-structure access record for power accounting,
	// sized to TotalCores.
	Activity *power.Activity
	// CacheStats is the hierarchy counter snapshot.
	CacheStats cache.Stats
	// PerCore holds each active core's counters.
	PerCore []cpu.Stats
	// BusUtilization and MemUtilization are busy fractions over the run.
	BusUtilization float64
	MemUtilization float64
	// Point echoes the operating point of the run.
	Point dvfs.OperatingPoint
	// NCores echoes the active core count.
	NCores int
	// Samples holds interval activity records when Config.SampleCycles is
	// set; they partition the run (deltas, not cumulative counters).
	Samples []Sample
	// Trace holds the last Config.TraceLast executed events when tracing
	// was enabled, in chronological order.
	Trace []TraceEvent
}

// Sample is one interval activity record of a sampled run.
type Sample struct {
	StartCycle   float64
	EndCycle     float64
	Activity     *power.Activity
	Instructions int64
}

// IPC returns aggregate instructions per chip cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / r.Cycles
}

type coreState uint8

const (
	stRunnable coreState = iota
	stWaitBarrier
	stWaitLock
	stDone
)

type barrier struct {
	arrived    int
	maxArrival float64
	waiting    []int
}

type lock struct {
	held   bool
	holder int
	queue  []int
}

// eventSource produces one core's workload events. *workload.Stream is
// the canonical implementation; RunMulti wraps it to remap lock ids.
// Next delivers one event, for the reference loop; NextBatch fills buf
// with the next events (the exact sequence repeated Next calls would
// deliver) and returns the count, for the fused loop.
type eventSource interface {
	Next() workload.Event
	NextBatch(buf []workload.Event) int
}

// Run executes prog on the configured chip and returns the measured
// result. It is deterministic for a fixed (prog, cfg).
func Run(prog *workload.Program, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	sources := make([]eventSource, cfg.NCores)
	for i := 0; i < cfg.NCores; i++ {
		st, err := workload.NewStream(prog, i, cfg.NCores, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sources[i] = st
	}
	return runEngine(cfg, sources, prog.MaxBarrierID()+1, prog.MaxLockID()+1, cfg.NCores)
}

// RunMulti executes one independent single-threaded program per core — a
// multiprogrammed workload in the style of the SMT/CMP throughput studies
// the paper's related work surveys. Each program runs as its own single
// thread: barriers release immediately and locks never cross programs.
// cfg.NCores must equal len(progs).
func RunMulti(progs []*workload.Program, cfg Config) (*Result, error) {
	if len(progs) == 0 {
		return nil, errors.New("cmp: no programs")
	}
	cfg.NCores = len(progs)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sources := make([]eventSource, len(progs))
	maxBarrier, lockBase := -1, 0
	for i, p := range progs {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("cmp: program %d (%s): %w", i, p.Name, err)
		}
		st, err := workload.NewStream(p, 0, 1, MultiSeed(cfg.Seed, i))
		if err != nil {
			return nil, err
		}
		// Remap this program's lock ids to a private range so programs
		// never contend on each other's locks, and shift its addresses
		// into a private 1 TiB slab so jobs never alias each other's data
		// (they still share the L2/bus/memory *capacity and bandwidth*).
		nLocks := p.MaxLockID() + 1
		sources[i] = &jobAdapter{src: st, lockOffset: lockBase, addrOffset: uint64(i+1) << 40}
		lockBase += nLocks
		if b := p.MaxBarrierID(); b > maxBarrier {
			maxBarrier = b
		}
	}
	// Quorum 1: every "barrier" is a single-thread barrier and releases
	// immediately (the programs are independent).
	return runEngine(cfg, sources, maxBarrier+1, lockBase, 1)
}

// MultiSeed derives job i's workload seed from a base seed; RunMulti uses
// it, and throughput studies reuse it so solo baselines see the same
// streams as the mixed run.
func MultiSeed(base uint64, job int) uint64 {
	return base + uint64(job)*0x9E37
}

// jobAdapter isolates one multiprogrammed job: lock ids shift into a
// private range and data addresses into a private slab. It batches by
// remapping a whole stream batch in place.
type jobAdapter struct {
	src        *workload.Stream
	lockOffset int
	addrOffset uint64
}

func (j *jobAdapter) remap(ev *workload.Event) {
	switch ev.Kind {
	case workload.EvLockAcq, workload.EvLockRel:
		ev.ID += int32(j.lockOffset)
	case workload.EvLoad, workload.EvStore:
		ev.Addr += j.addrOffset
	}
}

func (j *jobAdapter) Next() workload.Event {
	ev := j.src.Next()
	j.remap(&ev)
	return ev
}

func (j *jobAdapter) NextBatch(buf []workload.Event) int {
	n := j.src.NextBatch(buf)
	for i := 0; i < n; i++ {
		j.remap(&buf[i])
	}
	return n
}

// runEngine is the shared core loop: it executes every source to
// completion on the configured chip. barrierQuorum is the arrival count
// that releases a barrier (NCores for a parallel program, 1 for
// multiprogramming).
func runEngine(cfg Config, sources []eventSource, nBarriers, nLocks, barrierQuorum int) (*Result, error) {

	memLat := cfg.MemLatencySec
	if memLat == 0 {
		memLat = 75e-9
	}
	memOcc := cfg.MemOccupancySec
	if memOcc == 0 {
		memOcc = 1.2e-9
	}
	ccfg := cache.DefaultConfig(cfg.NCores, cfg.Point.Freq)
	if cfg.CacheOverride != nil {
		ccfg = *cfg.CacheOverride
		ccfg.NCores = cfg.NCores
		ccfg.FreqHz = cfg.Point.Freq
	}
	if cfg.PrefetchNextLine {
		ccfg.PrefetchNextLine = true
	}
	ccfg.Fault = cfg.CacheFault
	if cfg.Core.L1HitCycles != ccfg.L1HitCycles {
		return nil, fmt.Errorf("cmp: core L1 hit (%g) and hierarchy L1 hit (%g) disagree",
			cfg.Core.L1HitCycles, ccfg.L1HitCycles)
	}
	if cfg.ScaleMemoryWithChip {
		// With system-wide DVFS the memory runs at the same relative speed
		// as the chip: a fixed cycle count, i.e. wall-clock latency grows
		// as frequency drops. Express it by pinning the cycle cost at the
		// cost it would have at 3.2 GHz.
		const refFreq = 3.2e9
		stretch := refFreq / cfg.Point.Freq
		memLat *= stretch
		memOcc *= stretch
	}
	dram, err := mem.New(memLat, memOcc)
	if err != nil {
		return nil, err
	}
	hier, err := cache.New(ccfg, dram)
	if err != nil {
		return nil, err
	}
	// Deferred, so the line buffers go back to the free lists on every
	// exit path, and only after the result assembly below (Stats,
	// collectActivity, publishMetrics) has read the hierarchy.
	defer hier.Release()

	cores := make([]*cpu.Core, cfg.NCores)
	states := make([]coreState, cfg.NCores)
	sleepCycles := make([]float64, cfg.NCores)
	for i := 0; i < cfg.NCores; i++ {
		coreCfg := cfg.Core
		if cfg.PerCore != nil {
			coreCfg = cfg.PerCore[i]
		}
		if cores[i], err = cpu.New(i, coreCfg); err != nil {
			return nil, err
		}
	}
	barriers := make([]*barrier, nBarriers)
	for i := range barriers {
		barriers[i] = &barrier{}
	}
	locks := make([]*lock, nLocks)
	for i := range locks {
		locks[i] = &lock{}
	}

	maxEvents := cfg.MaxEvents
	if maxEvents <= 0 {
		maxEvents = 1 << 33
	}

	var ring *traceRing
	if cfg.TraceLast > 0 {
		ring = newTraceRing(cfg.TraceLast)
	}
	var cancel <-chan struct{}
	if cfg.Ctx != nil {
		cancel = cfg.Ctx.Done()
	}
	e := &engine{
		cfg:       cfg,
		sources:   sources,
		cores:     cores,
		states:    states,
		sleep:     sleepCycles,
		hier:      hier,
		barriers:  barriers,
		locks:     locks,
		quorum:    barrierQuorum,
		maxEvents: maxEvents,
		ring:      ring,
		cancel:    cancel,
	}
	if cfg.Unbatched || cfg.TraceLast > 0 {
		// A trace records every event in the seed's order, which only the
		// reference loop executes one at a time.
		err = e.runUnbatched()
	} else {
		err = e.runFused()
	}
	if err != nil {
		return nil, err
	}
	if cfg.SampleCycles > 0 {
		// Close the final partial interval.
		for _, c := range cores {
			if c.Clock() > e.watermark {
				e.watermark = c.Clock()
			}
		}
		e.takeSample()
	}

	// Assemble the result.
	res := &Result{Point: cfg.Point, NCores: cfg.NCores, Samples: e.samples, Events: e.events}
	if ring != nil {
		res.Trace = ring.events()
	}
	res.CacheStats = hier.Stats()
	perCore := make([]cpu.Stats, cfg.NCores)
	for i, core := range cores {
		perCore[i] = core.Stats()
		if perCore[i].FinishClock > res.Cycles {
			res.Cycles = perCore[i].FinishClock
		}
	}
	res.PerCore = perCore
	res.Activity, res.Instructions = collectActivity(cores, perCore, hier, cfg.TotalCores, sleepCycles)
	res.Seconds = res.Cycles / cfg.Point.Freq
	res.BusUtilization = hier.Bus().Utilization(res.Cycles)
	res.MemUtilization = dram.Utilization(res.Seconds)
	publishMetrics(cfg.Metrics, res, hier, dram)
	return res, nil
}

// collectActivity merges the cores' unit counters with the hierarchy's
// shared-structure counters into one power.Activity snapshot, returning
// the total instruction count alongside. perCore holds each core's
// already-taken Stats snapshot (aligned with cores), so assembly does
// not snapshot twice. Fractional cycle quantities round to the nearest
// count instead of truncating.
func collectActivity(cores []*cpu.Core, perCore []cpu.Stats, hier *cache.Hierarchy, totalCores int, sleepCycles []float64) (*power.Activity, int64) {
	act := power.NewActivity(totalCores)
	st := hier.Stats()
	var instr int64
	var il1MissFetches float64
	for i, core := range cores {
		cs := perCore[i]
		instr += cs.Instructions
		if sleepCycles != nil {
			act.AddSleep(i, int64(math.Round(sleepCycles[i])))
		}
		for _, u := range floorplan.CoreUnits() {
			if u == floorplan.UnitDL1 {
				continue // counted by the hierarchy
			}
			act.AddCore(i, u, core.Activity(u))
		}
		act.AddCore(i, floorplan.UnitDL1, st.L1DAccess[i])
		il1MissFetches += cs.IL1Misses
	}
	act.AddL2(st.L2Access + int64(math.Round(il1MissFetches)))
	act.AddBus(hier.Bus().Transactions)
	return act, instr
}

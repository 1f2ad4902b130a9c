package cmp

import (
	"math"
	"strings"
	"testing"

	"cmppower/internal/cache"
	"cmppower/internal/dvfs"
	"cmppower/internal/floorplan"
	"cmppower/internal/phys"
	"cmppower/internal/workload"
)

func nominalPoint(t testing.TB) dvfs.OperatingPoint {
	t.Helper()
	tab, err := dvfs.PentiumMStyle(phys.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	return tab.Nominal()
}

func lowPoint(t *testing.T) dvfs.OperatingPoint {
	t.Helper()
	tab, err := dvfs.PentiumMStyle(phys.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	return tab.Min()
}

// parallelKernel is a well-balanced compute-heavy program.
func parallelKernel(accesses int) *workload.Program {
	return &workload.Program{
		Name: "kernel",
		Steps: []Steptype{
			workload.Kernel{
				Accesses: accesses, ComputePerMem: 20, FPFrac: 0.3, BranchFrac: 0.1,
				WriteFrac: 0.25,
				Region:    workload.Region{Base: 0x100000, Size: 1 << 20, Scope: workload.Partition},
				Divide:    true,
			},
			workload.Barrier{ID: 0},
		},
	}
}

// Steptype aliases workload.Step for test brevity.
type Steptype = workload.Step

func TestConfigValidate(t *testing.T) {
	p := nominalPoint(t)
	good := DefaultConfig(4, p)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	muts := []func(*Config){
		func(c *Config) { c.NCores = 0 },
		func(c *Config) { c.TotalCores = 1 },
		func(c *Config) { c.Point.Freq = 0 },
		func(c *Config) { c.Point.Volt = -1 },
		func(c *Config) { c.Core.IssueWidth = 0 },
		func(c *Config) { c.BarrierCycles = -1 },
		func(c *Config) { c.LockCycles = -1 },
		func(c *Config) { c.MemLatencySec = -1 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig(4, p)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunBasicSingleCore(t *testing.T) {
	res, err := Run(parallelKernel(2000), DefaultConfig(1, nominalPoint(t)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Seconds <= 0 || res.Instructions <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if got := res.IPC(); got <= 0 || got > 4 {
		t.Errorf("IPC=%g outside (0,4]", got)
	}
	if res.Activity.Total() == 0 {
		t.Error("no activity recorded")
	}
	if math.Abs(res.Seconds-res.Cycles/res.Point.Freq) > 1e-18 {
		t.Error("seconds/cycles inconsistent")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig(4, nominalPoint(t))
	a, err := Run(parallelKernel(2000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(parallelKernel(2000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Errorf("non-deterministic: %g/%d vs %g/%d", a.Cycles, a.Instructions, b.Cycles, b.Instructions)
	}
}

func TestRunSeedMatters(t *testing.T) {
	cfg := DefaultConfig(4, nominalPoint(t))
	a, _ := Run(parallelKernel(2000), cfg)
	cfg.Seed = 999
	b, _ := Run(parallelKernel(2000), cfg)
	if a.Cycles == b.Cycles {
		t.Error("different seeds produced identical makespans (suspicious)")
	}
}

func TestParallelSpeedup(t *testing.T) {
	// A balanced parallel kernel should speed up substantially from 1 to 8
	// cores at the same operating point.
	p := nominalPoint(t)
	r1, err := Run(parallelKernel(8000), DefaultConfig(1, p))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(parallelKernel(8000), DefaultConfig(8, p))
	if err != nil {
		t.Fatal(err)
	}
	speedup := r1.Seconds / r8.Seconds
	if speedup < 3 || speedup > 9 {
		t.Errorf("8-core speedup=%g, want healthy parallel scaling", speedup)
	}
}

func TestSerialSectionLimitsScaling(t *testing.T) {
	prog := &workload.Program{
		Name: "amdahl",
		Steps: []Steptype{
			workload.Serial{Body: []Steptype{workload.Compute{N: 200000}}},
			workload.Barrier{ID: 0},
			workload.Kernel{
				Accesses: 2000, ComputePerMem: 20,
				Region: workload.Region{Base: 0x100000, Size: 1 << 18, Scope: workload.Partition},
				Divide: true,
			},
			workload.Barrier{ID: 1},
		},
	}
	p := nominalPoint(t)
	r1, err := Run(prog, DefaultConfig(1, p))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(prog, DefaultConfig(8, p))
	if err != nil {
		t.Fatal(err)
	}
	speedup := r1.Seconds / r8.Seconds
	if speedup > 3 {
		t.Errorf("speedup=%g despite a dominant serial section", speedup)
	}
	// Waiting cores must have accumulated idle cycles.
	var idle float64
	for _, st := range r8.PerCore[1:] {
		idle += st.IdleCycles
	}
	if idle <= 0 {
		t.Error("no idle time recorded for waiting cores")
	}
}

func TestLockSerialization(t *testing.T) {
	prog := &workload.Program{
		Name: "locked",
		Steps: []Steptype{
			workload.Loop{Times: 20, Body: []Steptype{
				workload.Critical{Lock: 0, Body: []Steptype{workload.Compute{N: 2000}}},
			}},
			workload.Barrier{ID: 0},
		},
	}
	p := nominalPoint(t)
	r1, err := Run(prog, DefaultConfig(1, p))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(prog, DefaultConfig(4, p))
	if err != nil {
		t.Fatal(err)
	}
	// Fully serialized critical sections: 4 cores do 4x the critical work
	// with no speedup — wall time should grow, not shrink.
	if r4.Seconds < r1.Seconds*2 {
		t.Errorf("lock-bound run scaled: 1-core %g s vs 4-core %g s", r1.Seconds, r4.Seconds)
	}
}

func TestMemoryBoundBenefitsFromDownscaling(t *testing.T) {
	// At 200 MHz the fixed 75 ns memory costs 15 cycles instead of 240, so
	// a memory-bound program's CPI improves dramatically — the paper's key
	// experimental effect (§4.1).
	prog := &workload.Program{
		Name: "membound",
		Steps: []Steptype{
			workload.Kernel{
				Accesses: 4000, ComputePerMem: 2,
				Region: workload.Region{Base: 0, Size: 64 << 20, Scope: workload.Shared},
				Divide: true,
			},
		},
	}
	rFast, err := Run(prog, DefaultConfig(1, nominalPoint(t)))
	if err != nil {
		t.Fatal(err)
	}
	rSlow, err := Run(prog, DefaultConfig(1, lowPoint(t)))
	if err != nil {
		t.Fatal(err)
	}
	cpiFast := rFast.Cycles / float64(rFast.Instructions)
	cpiSlow := rSlow.Cycles / float64(rSlow.Instructions)
	if cpiSlow >= cpiFast/2 {
		t.Errorf("CPI should collapse at low frequency: fast %g, slow %g", cpiFast, cpiSlow)
	}
	// And the wall-clock slowdown is much less than the 16x frequency drop.
	slowdown := rSlow.Seconds / rFast.Seconds
	if slowdown > 8 {
		t.Errorf("memory-bound slowdown %g, want « 16", slowdown)
	}
}

func TestScaleMemoryWithChipRemovesTheEffect(t *testing.T) {
	// With system-wide scaling (the analytical model's assumption) the
	// memory-bound program slows down by the full frequency ratio.
	prog := &workload.Program{
		Name: "membound",
		Steps: []Steptype{
			workload.Kernel{
				Accesses: 2000, ComputePerMem: 2,
				Region: workload.Region{Base: 0, Size: 64 << 20, Scope: workload.Shared},
				Divide: true,
			},
		},
	}
	cfgFast := DefaultConfig(1, nominalPoint(t))
	cfgSlow := DefaultConfig(1, lowPoint(t))
	cfgSlow.ScaleMemoryWithChip = true
	rFast, err := Run(prog, cfgFast)
	if err != nil {
		t.Fatal(err)
	}
	rSlow, err := Run(prog, cfgSlow)
	if err != nil {
		t.Fatal(err)
	}
	slowdown := rSlow.Seconds / rFast.Seconds
	want := cfgFast.Point.Freq / cfgSlow.Point.Freq
	if math.Abs(slowdown-want)/want > 0.2 {
		t.Errorf("system-wide scaling slowdown %g, want ≈%g", slowdown, want)
	}
}

func TestActivitySizedToTotalCores(t *testing.T) {
	res, err := Run(parallelKernel(1000), DefaultConfig(2, nominalPoint(t)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Activity.NCores() != 16 {
		t.Errorf("activity sized %d, want TotalCores=16", res.Activity.NCores())
	}
	if res.Activity.CoreCount(0, floorplan.UnitIALU) == 0 {
		t.Error("core 0 has no IALU activity")
	}
	if res.Activity.CoreCount(5, floorplan.UnitIALU) != 0 {
		t.Error("inactive core has activity")
	}
	if res.Activity.BusCount() == 0 || res.Activity.L2Count() == 0 {
		t.Error("no shared-structure activity")
	}
}

func TestCustomCacheConfig(t *testing.T) {
	p := nominalPoint(t)
	cfg := DefaultConfig(2, p)
	cc := cache.DefaultConfig(2, p.Freq)
	cc.L1 = cache.Geometry{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2}
	cfg.CacheOverride = &cc
	res, err := Run(parallelKernel(4000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny L1s must miss more than the default.
	resDefault, err := Run(parallelKernel(4000), DefaultConfig(2, p))
	if err != nil {
		t.Fatal(err)
	}
	var missTiny, missBig int64
	for c := 0; c < 2; c++ {
		missTiny += res.CacheStats.L1DMiss[c]
		missBig += resDefault.CacheStats.L1DMiss[c]
	}
	if missTiny <= missBig {
		t.Errorf("8KB L1 misses (%d) should exceed 64KB (%d)", missTiny, missBig)
	}
}

func TestMismatchedL1Latency(t *testing.T) {
	p := nominalPoint(t)
	cfg := DefaultConfig(2, p)
	cfg.Core.L1HitCycles = 3
	if _, err := Run(parallelKernel(100), cfg); err == nil ||
		!strings.Contains(err.Error(), "disagree") {
		t.Errorf("mismatched L1 latency not caught: %v", err)
	}
}

func TestEventBudget(t *testing.T) {
	cfg := DefaultConfig(1, nominalPoint(t))
	cfg.MaxEvents = 10
	if _, err := Run(parallelKernel(100000), cfg); err == nil {
		t.Error("event budget not enforced")
	}
}

func TestInvalidProgramRejected(t *testing.T) {
	bad := &workload.Program{Name: "", Steps: []Steptype{workload.Compute{N: 1}}}
	if _, err := Run(bad, DefaultConfig(1, nominalPoint(t))); err == nil {
		t.Error("invalid program accepted")
	}
}

func TestBarrierImbalanceCreatesIdle(t *testing.T) {
	prog := &workload.Program{
		Name: "imbalanced",
		Steps: []Steptype{
			workload.Kernel{
				Accesses: 2000, ComputePerMem: 10, Jitter: 0.6,
				Region: workload.Region{Base: 0, Size: 1 << 20, Scope: workload.Partition},
				Divide: true,
			},
			workload.Barrier{ID: 0},
		},
	}
	res, err := Run(prog, DefaultConfig(8, nominalPoint(t)))
	if err != nil {
		t.Fatal(err)
	}
	var idle float64
	for _, st := range res.PerCore {
		idle += st.IdleCycles
	}
	if idle <= 0 {
		t.Error("jittered kernel produced no barrier idle time")
	}
}

func TestLockHandoffIsFIFO(t *testing.T) {
	// With a hot lock and unequal arrival times, the queue must hand the
	// lock over in arrival order. We infer fairness from per-core lock
	// counts: each core completes all its critical sections (no
	// starvation) and the run terminates.
	prog := &workload.Program{
		Name: "fifo",
		Steps: []Steptype{
			workload.Loop{Times: 30, Body: []Steptype{
				workload.Critical{Lock: 0, Body: []Steptype{workload.Compute{N: 300}}},
				workload.Compute{N: 50, Divide: true},
			}},
		},
	}
	res, err := Run(prog, DefaultConfig(4, nominalPoint(t)))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.PerCore {
		// 30 acquisitions + 30 releases (+ loop compute) per core.
		if st.SyncEvents < 60 {
			t.Errorf("core %d completed only %d sync events", i, st.SyncEvents)
		}
	}
	// Total serialized critical work bounds the makespan from below:
	// 4 cores × 30 sections × 300 instr at IPC 2 = 18000 cycles.
	if res.Cycles < 18000 {
		t.Errorf("makespan %g below the serialized critical-section bound", res.Cycles)
	}
}

func TestRunPowerOfTwoCoreCountsAllWork(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 12, 16} {
		cfg := DefaultConfig(n, nominalPoint(t))
		res, err := Run(parallelKernel(1000), cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(res.PerCore) != n {
			t.Fatalf("n=%d: %d cores reported", n, len(res.PerCore))
		}
		for c, st := range res.PerCore {
			if st.Instructions == 0 {
				t.Errorf("n=%d: core %d ran nothing", n, c)
			}
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	// A barrier inside a Serial section is a program bug: only thread 0
	// arrives while the others run past and finish. The engine must report
	// a deadlock instead of spinning forever.
	prog := &workload.Program{
		Name: "deadlock",
		Steps: []Steptype{
			workload.Serial{Body: []Steptype{workload.Barrier{ID: 0}}},
		},
	}
	_, err := Run(prog, DefaultConfig(2, nominalPoint(t)))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("want deadlock error, got %v", err)
	}
}

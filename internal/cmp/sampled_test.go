package cmp

import (
	"fmt"
	"testing"

	"cmppower/internal/cpu"
	"cmppower/internal/faults"
	"cmppower/internal/splash"
	"cmppower/internal/workload"
)

// sampledVariant is one engine feature set of the sampled equivalence
// matrix; build returns a fresh configuration, because a fault injector
// carries state through a run.
type sampledVariant struct {
	name  string
	build func(t *testing.T, app splash.App, n int) Config
}

var sampledVariants = []sampledVariant{
	{"plain", func(t *testing.T, app splash.App, n int) Config {
		return sampledBaseConfig(t, app, n)
	}},
	{"biglittle", func(t *testing.T, app splash.App, n int) Config {
		// Odd cores are little: slower clock, lower IPC, more I-cache
		// misses, so clocks drift apart and per-core dilation is covered.
		cfg := sampledBaseConfig(t, app, n)
		cfg.PerCore = make([]cpu.Config, n)
		for i := range cfg.PerCore {
			cc := cfg.Core
			if i%2 == 1 {
				cc.SpeedRatio = 0.55
				cc.IPCNonMem *= 0.6
				cc.IL1MissRate *= 2
			}
			cfg.PerCore[i] = cc
		}
		return cfg
	}},
	{"faulted", func(t *testing.T, app splash.App, n int) Config {
		cfg := sampledBaseConfig(t, app, n)
		inj, err := faults.New(faults.Config{Seed: 11, CacheTransientProb: 2e-4, CacheRetryCycles: 40})
		if err != nil {
			t.Fatal(err)
		}
		cfg.CacheFault = inj
		return cfg
	}},
	{"thrifty", func(t *testing.T, app splash.App, n int) Config {
		cfg := sampledBaseConfig(t, app, n)
		cfg.ThriftyBarriers = true
		return cfg
	}},
	{"prefetch", func(t *testing.T, app splash.App, n int) Config {
		cfg := sampledBaseConfig(t, app, n)
		cfg.PrefetchNextLine = true
		return cfg
	}},
	{"zerosync", func(t *testing.T, app splash.App, n int) Config {
		// Synchronization that costs nothing at all: no barrier or lock
		// cycles and no I-cache stall on the sync instruction, so a woken
		// core resumes at its waker's exact clock (DESIGN.md §8).
		cfg := sampledBaseConfig(t, app, n)
		cfg.BarrierCycles, cfg.LockCycles = 0, 0
		cfg.Core.IL1MissRate = 0
		return cfg
	}},
}

func sampledBaseConfig(t *testing.T, app splash.App, n int) Config {
	cfg := DefaultConfig(n, nominalPoint(t))
	cfg.Core = app.CoreConfig()
	cfg.Seed = 7
	return cfg
}

// TestSampledMatchesReference is the sampled fused loop's equivalence
// matrix: every SPLASH-2 model on 1 to 16 cores, under each engine
// feature set, sampled at interval lengths from one cycle to a
// sixteenth of the run, must match the event-at-a-time reference loop
// bit for bit — every sample, counter and cycle. One-cycle intervals
// close after almost every event, so they exercise the cut rule at its
// finest grain; they run on the plain and zero-cost-sync variants only,
// to keep the test to a few seconds. The RunMulti subtest covers
// multiprogrammed mixes, whose jobs never wait on each other: every
// barrier releases at once and every lock is private, so all cores stay
// live until they finish.
func TestSampledMatchesReference(t *testing.T) {
	const scale = 0.02
	for _, app := range splash.Catalog() {
		prog := app.Program(scale)
		for _, n := range []int{1, 2, 3, 4, 8, 16} {
			if !app.RunsOn(n) {
				continue
			}
			t.Run(fmt.Sprintf("%s/n%d", app.Name, n), func(t *testing.T) {
				for _, v := range sampledVariants {
					probe, err := Run(prog, v.build(t, app, n))
					if err != nil {
						t.Fatal(err)
					}
					c := probe.Cycles
					sizes := []float64{c / 16, c / 64, c/97 + 0.37, c / 1000}
					if v.name == "plain" || v.name == "zerosync" {
						sizes = append(sizes, 1)
					}
					for _, s := range sizes {
						ref := v.build(t, app, n)
						ref.SampleCycles = s
						ref.Unbatched = true
						want, err := Run(prog, ref)
						if err != nil {
							t.Fatal(err)
						}
						fast := v.build(t, app, n)
						fast.SampleCycles = s
						got, err := Run(prog, fast)
						if err != nil {
							t.Fatal(err)
						}
						if d := diffResults(got, want); d != "" {
							t.Errorf("%s, SampleCycles %g: %s", v.name, s, d)
						}
					}
				}
			})
		}
	}
	t.Run("RunMulti", func(t *testing.T) {
		apps := splash.Catalog()
		for _, mix := range [][]int{{0, 3, 6, 9}, {1, 5, 10}} {
			progs := make([]*workload.Program, 0, len(mix))
			for _, i := range mix {
				progs = append(progs, apps[i].Program(scale))
			}
			for _, s := range []float64{1, 997.5, 20_000} {
				run := func(unbatched bool) *Result {
					t.Helper()
					cfg := DefaultConfig(len(progs), nominalPoint(t))
					cfg.Seed = 5
					cfg.SampleCycles = s
					cfg.Unbatched = unbatched
					res, err := RunMulti(progs, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				if d := diffResults(run(false), run(true)); d != "" {
					t.Errorf("mix %v, SampleCycles %g: %s", mix, s, d)
				}
			}
		}
	})
}

// scriptSource replays a fixed event list, then reports EvDone forever.
type scriptSource struct {
	evs []workload.Event
	pos int
}

func (s *scriptSource) Next() workload.Event {
	if s.pos == len(s.evs) {
		return workload.Event{Kind: workload.EvDone}
	}
	s.pos++
	return s.evs[s.pos-1]
}

// NextBatch delivers one event per call.
func (s *scriptSource) NextBatch(buf []workload.Event) int {
	buf[0] = s.Next()
	return 1
}

// TestSampledScripted pins two orders that stream-built programs
// cannot reach, with hand-written event scripts.
//
// stepback: with free synchronization, core 2 releases lock 0 at cycle
// 50 to core 0, which resumes at cycle 50 too — ahead of core 1's
// compute event that also starts at cycle 50 but ran before the release
// in the seed's order. Core 0's next event closes the first interval
// (at cycle 100), so the interval must include core 1's event; only the
// step-back charge (chargeStepBack) puts it there.
//
// zerolength: core 0 resumes from a lock hand-off past the mark, and
// its first event is an empty compute burst, which closes the interval
// before the load that follows it at the same clock. A core's own tail
// entries precede its pending shared event even at an equal clock.
func TestSampledScripted(t *testing.T) {
	compute := func(n int32) workload.Event { return workload.Event{Kind: workload.EvCompute, N: n} }
	acq := workload.Event{Kind: workload.EvLockAcq}
	rel := workload.Event{Kind: workload.EvLockRel}
	load := workload.Event{Kind: workload.EvLoad, Addr: 0x4000}
	for _, c := range []struct {
		name     string
		freeSync bool
		scripts  [][]workload.Event
		firstEnd func(float64) bool
	}{
		{"stepback", true, [][]workload.Event{
			{compute(60), acq, compute(100), rel},
			{compute(100), compute(20)},
			{acq, compute(100), rel},
		}, func(end float64) bool { return end == 100 }},
		{"zerolength", false, [][]workload.Event{
			{compute(20), acq, compute(0), load, rel},
			{acq, compute(100), rel},
		}, func(end float64) bool { return end > 80 && end < 90 }},
	} {
		run := func(unbatched bool) *Result {
			t.Helper()
			cfg := DefaultConfig(len(c.scripts), nominalPoint(t))
			cfg.Core.IPCNonMem = 2 // n instructions take n/2 cycles
			if c.freeSync {
				cfg.Core.IL1MissRate = 0
				cfg.BarrierCycles, cfg.LockCycles = 0, 0
			}
			cfg.SampleCycles = 80
			cfg.Unbatched = unbatched
			sources := make([]eventSource, len(c.scripts))
			for i, evs := range c.scripts {
				sources[i] = &scriptSource{evs: evs}
			}
			res, err := runEngine(cfg, sources, 0, 1, len(c.scripts))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(true)
		if len(want.Samples) == 0 || !c.firstEnd(want.Samples[0].EndCycle) {
			t.Fatalf("%s: reference samples %+v; the script no longer builds its case", c.name, want.Samples)
		}
		if d := diffResults(run(false), want); d != "" {
			t.Errorf("%s: fused differs from reference: %s", c.name, d)
		}
	}
}

// TestSampledLongTails runs a program with long stretches of compute
// between memory events, so tails hold many deferred bursts and a cut
// splits them: each core's charges must keep the core's own order for
// its float counters to round as the reference's do.
func TestSampledLongTails(t *testing.T) {
	prog := &workload.Program{Name: "longtails", Steps: []workload.Step{
		workload.Loop{Times: 40, Body: []workload.Step{
			workload.Compute{N: 37, FPFrac: 0.2, BranchFrac: 0.15},
			workload.Compute{N: 211, FPFrac: 0.1, BranchFrac: 0.1},
			workload.Compute{N: 5, BranchFrac: 0.4},
			workload.Compute{N: 93, FPFrac: 0.5, BranchFrac: 0.05},
			workload.Kernel{
				Accesses: 6, ComputePerMem: 3, WriteFrac: 0.3,
				Region: workload.Region{Base: 0x200000, Size: 1 << 16, Scope: workload.Partition},
			},
		}},
		workload.Barrier{ID: 0},
	}}
	for _, n := range []int{2, 3, 8} {
		cfg := DefaultConfig(n, nominalPoint(t))
		cfg.Core.IPCNonMem = 2.3
		probe, err := Run(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []float64{probe.Cycles / 16, probe.Cycles / 64, 1} {
			ref := cfg
			ref.SampleCycles = s
			ref.Unbatched = true
			want, err := Run(prog, ref)
			if err != nil {
				t.Fatal(err)
			}
			fast := cfg
			fast.SampleCycles = s
			got, err := Run(prog, fast)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffResults(got, want); d != "" {
				t.Errorf("n=%d, SampleCycles %g: %s", n, s, d)
			}
		}
	}
}

// TestSampledBelowClockResolution samples at an interval too short to
// move the mark once the clock is large, where the seed closes an
// interval after every postlude event.
func TestSampledBelowClockResolution(t *testing.T) {
	for _, n := range []int{1, 3} {
		run := func(unbatched bool) *Result {
			t.Helper()
			cfg := DefaultConfig(n, nominalPoint(t))
			cfg.SampleCycles = 1e-300
			cfg.Unbatched = unbatched
			res, err := Run(parallelKernel(300), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(true)
		if len(want.Samples) < 100 {
			t.Fatalf("n=%d: only %d samples", n, len(want.Samples))
		}
		if d := diffResults(run(false), want); d != "" {
			t.Errorf("n=%d: %s", n, d)
		}
	}
}

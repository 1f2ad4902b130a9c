package cmp

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cmppower/internal/dvfs"
	"cmppower/internal/faults"
	"cmppower/internal/phys"
	"cmppower/internal/splash"
	"cmppower/internal/workload"
)

// engineTestConfig builds one run configuration for an equivalence case.
// mode selects the engine features exercised:
//
//	plain   — nothing extra: the pure compute/memory/sync hot path
//	sampled — interval sampling (the fused loop's deferred charges)
//	traced  — sampling plus event tracing, which runs the reference
//	          loop either way: a determinism check of the trace path
//	thrifty — thrifty barriers (sleep accounting on wake-up)
//	faulted — cache fault injection (per-access hook in global order)
func engineTestConfig(t *testing.T, app splash.App, n int, mode string) Config {
	t.Helper()
	cfg := DefaultConfig(n, nominalPoint(t))
	cfg.Core = app.CoreConfig()
	cfg.Seed = 7
	switch mode {
	case "plain":
	case "sampled":
		cfg.SampleCycles = 50_000
	case "traced":
		cfg.SampleCycles = 50_000
		cfg.TraceLast = 64
	case "thrifty":
		cfg.ThriftyBarriers = true
		cfg.SampleCycles = 80_000
	case "faulted":
		inj, err := faults.New(faults.Config{
			Seed:               11,
			CacheTransientProb: 2e-4,
			CacheRetryCycles:   40,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.CacheFault = inj
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	return cfg
}

// diffResults pinpoints the first field where two results disagree; empty
// string means bit-identical.
func diffResults(a, b *Result) string {
	if a.Cycles != b.Cycles {
		return fmt.Sprintf("Cycles %v vs %v", a.Cycles, b.Cycles)
	}
	if a.Instructions != b.Instructions {
		return fmt.Sprintf("Instructions %d vs %d", a.Instructions, b.Instructions)
	}
	if a.Events != b.Events {
		return fmt.Sprintf("Events %d vs %d", a.Events, b.Events)
	}
	if !reflect.DeepEqual(a.CacheStats, b.CacheStats) {
		return fmt.Sprintf("CacheStats %+v vs %+v", a.CacheStats, b.CacheStats)
	}
	if !reflect.DeepEqual(a.PerCore, b.PerCore) {
		return fmt.Sprintf("PerCore %+v vs %+v", a.PerCore, b.PerCore)
	}
	if !reflect.DeepEqual(a.Activity, b.Activity) {
		return "Activity differs"
	}
	if a.BusUtilization != b.BusUtilization || a.MemUtilization != b.MemUtilization {
		return "utilization differs"
	}
	if len(a.Samples) != len(b.Samples) {
		return fmt.Sprintf("%d samples vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if !reflect.DeepEqual(a.Samples[i], b.Samples[i]) {
			return fmt.Sprintf("sample %d: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		return "trace differs"
	}
	return ""
}

// TestBatchedMatchesUnbatched is the golden equivalence guarantee of this
// package: the fused fast path produces, for every SPLASH-2 model and
// core count, results bit-identical to the event-at-a-time reference
// loop — every cycle count, counter, activity record, interval sample,
// and trace entry. Modes cover sampling, tracing, thrifty barriers, and
// deterministic fault injection (which is order-sensitive: the per-access
// fault stream only matches if the engines issue cache accesses in the
// same global order). TestSampledMatchesReference covers sampling in
// depth.
func TestBatchedMatchesUnbatched(t *testing.T) {
	apps := splash.Catalog()
	if len(apps) != 12 {
		t.Fatalf("expected 12 SPLASH-2 models, have %d", len(apps))
	}
	const scale = 0.02
	for _, app := range apps {
		for _, n := range []int{1, 4, 16} {
			if !app.RunsOn(n) {
				continue
			}
			// Heavier feature modes run on a representative subset; the
			// plain and faulted modes cover the full matrix.
			modes := []string{"plain", "faulted"}
			if app.Name == "FFT" || app.Name == "Ocean" || app.Name == "Radiosity" {
				modes = append(modes, "sampled", "traced", "thrifty")
			}
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/n%d/%s", app.Name, n, mode), func(t *testing.T) {
					prog := app.Program(scale)
					ref := engineTestConfig(t, app, n, mode)
					ref.Unbatched = true
					want, err := Run(prog, ref)
					if err != nil {
						t.Fatal(err)
					}
					fast := engineTestConfig(t, app, n, mode)
					got, err := Run(prog, fast)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffResults(got, want); d != "" {
						t.Fatalf("batched differs from unbatched: %s", d)
					}
				})
			}
		}
	}
}

// TestBatchedMatchesUnbatchedMulti extends the guarantee to RunMulti's
// multiprogrammed mode, where the batch path flows through jobAdapter's
// in-place remapping of lock ids and addresses.
func TestBatchedMatchesUnbatchedMulti(t *testing.T) {
	apps := splash.Catalog()
	progs := make([]*workload.Program, 0, 4)
	for _, i := range []int{0, 3, 6, 9} {
		progs = append(progs, apps[i].Program(0.02))
	}
	run := func(unbatched bool) *Result {
		t.Helper()
		cfg := DefaultConfig(len(progs), nominalPoint(t))
		cfg.Seed = 5
		cfg.SampleCycles = 60_000
		cfg.Unbatched = unbatched
		res, err := RunMulti(progs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(true)
	got := run(false)
	if d := diffResults(got, want); d != "" {
		t.Fatalf("batched differs from unbatched (multi): %s", d)
	}
}

// benchmarkEngine measures one 16-core Ocean run; events/op plus ns/op
// give engine events per second.
func benchmarkEngine(b *testing.B, unbatched bool) {
	benchmarkEngineN(b, unbatched, 16)
}

func benchmarkEngineN(b *testing.B, unbatched bool, nCores int) {
	app, err := splash.ByName("Ocean")
	if err != nil {
		b.Fatal(err)
	}
	prog := app.Program(0.5)
	tab, err := dvfs.PentiumMStyle(phys.Tech65())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(nCores, tab.Nominal())
	cfg.Core = app.CoreConfig()
	cfg.Unbatched = unbatched
	// The experiment rig always runs with a context (RunAppCtx installs
	// context.Background() even for plain RunApp calls), so the
	// representative engine configuration includes one. The reference
	// loop polls it per event, exactly as the seed engine did.
	cfg.Ctx = context.Background()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := Run(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/op")
}

func BenchmarkEngineBatched(b *testing.B)   { benchmarkEngine(b, false) }
func BenchmarkEngineUnbatched(b *testing.B) { benchmarkEngine(b, true) }

// BenchmarkEngineScaling covers the fig3 sweep's core counts: the batched
// engine's advantage depends on how often arbitration interleaves cores,
// so a single core count would misrepresent a sweep's wall-clock gain.
func BenchmarkEngineScaling(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			benchmarkEngineN(b, false, n)
		})
	}
}

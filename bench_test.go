// Benchmarks regenerating every table and figure of the paper, plus the
// ablation studies listed in DESIGN.md and throughput microbenchmarks for
// the substrates. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics report the headline reproduction numbers (peak speedup,
// optimal core count, normalized power) so a bench run doubles as a
// regression check on the result shapes recorded in EXPERIMENTS.md.
package cmppower_test

import (
	"context"
	"fmt"
	"testing"

	"cmppower"
	"cmppower/internal/experiment"
	"cmppower/internal/splash"
)

// BenchmarkFig1ScenarioI regenerates Figure 1: the full normalized-power
// sweep over efficiency and core count for both technologies.
func BenchmarkFig1ScenarioI(b *testing.B) {
	for _, tech := range []cmppower.Technology{cmppower.Tech130(), cmppower.Tech65()} {
		b.Run(tech.Name, func(b *testing.B) {
			m, err := cmppower.NewAnalyticModel(tech)
			if err != nil {
				b.Fatal(err)
			}
			grid, err := cmppower.EpsGrid(0.05, 1.0, 40)
			if err != nil {
				b.Fatal(err)
			}
			var last float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, n := range []int{2, 4, 8, 16, 32} {
					curve, err := m.Fig1Curve(n, grid)
					if err != nil {
						b.Fatal(err)
					}
					last = curve[len(curve)-1].NormPower
				}
			}
			b.ReportMetric(last, "normpower@eps1,N32")
		})
	}
}

// BenchmarkFig2ScenarioII regenerates Figure 2: the speedup-vs-N curve
// under the single-core power budget.
func BenchmarkFig2ScenarioII(b *testing.B) {
	for _, tech := range []cmppower.Technology{cmppower.Tech130(), cmppower.Tech65()} {
		b.Run(tech.Name, func(b *testing.B) {
			m, err := cmppower.NewAnalyticModel(tech)
			if err != nil {
				b.Fatal(err)
			}
			var peak cmppower.AnalyticPoint
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Fig2Curve(32, 1.0); err != nil {
					b.Fatal(err)
				}
				if peak, err = m.PeakSpeedup(1.0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(peak.Speedup, "peak-speedup")
			b.ReportMetric(float64(peak.N), "peak-N")
		})
	}
}

// BenchmarkFig3ScenarioI regenerates Figure 3 (all five panels) for all
// twelve SPLASH-2 models at a reduced workload scale.
func BenchmarkFig3ScenarioI(b *testing.B) {
	rig, err := cmppower.NewExperiment(0.25)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4, 8, 16}
	var power16, density16, temp16, n16 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		power16, density16, temp16, n16 = 0, 0, 0, 0
		for _, app := range cmppower.Apps() {
			res, err := rig.ScenarioI(app, counts)
			if err != nil {
				b.Fatal(err)
			}
			last := res.Rows[len(res.Rows)-1]
			power16 += last.NormPower
			density16 += last.NormDensity
			temp16 += last.AvgTempC
			n16++
		}
	}
	b.ReportMetric(power16/n16, "avg-normpower@16")
	b.ReportMetric(density16/n16, "avg-normdensity@16")
	b.ReportMetric(temp16/n16, "avg-temp@16,C")
}

// BenchmarkFig4ScenarioII regenerates Figure 4 for the paper's three
// case-study applications.
func BenchmarkFig4ScenarioII(b *testing.B) {
	rig, err := cmppower.NewExperiment(0.25)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4, 8, 16}
	var fmmGap, radixGap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"Cholesky", "FMM", "Radix"} {
			app, err := cmppower.AppByName(name)
			if err != nil {
				b.Fatal(err)
			}
			res, err := rig.ScenarioII(app, counts)
			if err != nil {
				b.Fatal(err)
			}
			last := res.Rows[len(res.Rows)-1]
			gap := (last.NominalSpeedup - last.ActualSpeedup) / last.NominalSpeedup
			switch name {
			case "FMM":
				fmmGap = gap
			case "Radix":
				radixGap = gap
			}
		}
	}
	b.ReportMetric(fmmGap, "fmm-gap@16")
	b.ReportMetric(radixGap, "radix-gap@16")
}

// BenchmarkParallelSweep runs the full 12-app Scenario I sweep at fixed
// worker counts. On a multi-core host the 8-worker case demonstrates the
// wall-clock win of the pooled engine (the sweep is embarrassingly
// parallel per app); on a single-CPU host all worker counts degenerate to
// the serial time. Every iteration builds a fresh rig so the memo cache
// never carries over between iterations — the comparison isolates the
// worker pool, not memoization (BenchmarkMemoizedRerun covers that).
func BenchmarkParallelSweep(b *testing.B) {
	counts := []int{1, 2, 4, 8, 16}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rig, err := cmppower.NewExperiment(0.1)
				if err != nil {
					b.Fatal(err)
				}
				outs, err := rig.SweepScenarioIWith(context.Background(), cmppower.Apps(), counts,
					cmppower.SweepConfig{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, o := range outs {
					if o.Err != nil {
						b.Fatal(o.Err)
					}
				}
			}
		})
	}
}

// BenchmarkMemoizedRerun measures the memo cache: Scenario I followed by
// Scenario II on the same rig, where II's per-app nominal profiling runs
// are all served from the cache, against the same pair with the cache off.
func BenchmarkMemoizedRerun(b *testing.B) {
	counts := []int{1, 2, 4, 8, 16}
	apps := cmppower.Apps()[:4]
	for _, noMemo := range []bool{false, true} {
		name := "memo"
		if noMemo {
			name = "nomemo"
		}
		b.Run(name, func(b *testing.B) {
			var stats cmppower.MemoStats
			for i := 0; i < b.N; i++ {
				rig, err := cmppower.NewExperiment(0.1)
				if err != nil {
					b.Fatal(err)
				}
				cfg := cmppower.SweepConfig{Workers: 1, NoMemo: noMemo}
				if _, err := rig.SweepScenarioIWith(context.Background(), apps, counts, cfg); err != nil {
					b.Fatal(err)
				}
				if _, err := rig.SweepScenarioIIWith(context.Background(), apps, counts, cfg); err != nil {
					b.Fatal(err)
				}
				stats = rig.MemoStats()
			}
			b.ReportMetric(float64(stats.Hits), "memo-hits/op")
			b.ReportMetric(float64(stats.Misses), "memo-misses/op")
		})
	}
}

// BenchmarkCampaign times the paper's full reproduction campaign: Fig. 3
// (every application) then Fig. 4 (Cholesky, FMM, Radix) over N = 1..16 at
// scale 1.0 with two sweep workers, on a fresh rig each iteration, so the
// memo serves only repeats within one campaign. ns/op is the wall time of
// one campaign.
func BenchmarkCampaign(b *testing.B) {
	fig4 := make([]cmppower.App, 0, 3)
	for _, name := range []string{"Cholesky", "FMM", "Radix"} {
		app, err := cmppower.AppByName(name)
		if err != nil {
			b.Fatal(err)
		}
		fig4 = append(fig4, app)
	}
	counts := []int{1, 2, 4, 8, 16}
	cfg := cmppower.SweepConfig{Workers: 2}
	for i := 0; i < b.N; i++ {
		rig, err := cmppower.NewExperiment(1.0)
		if err != nil {
			b.Fatal(err)
		}
		outs, err := rig.SweepScenarioIWith(context.Background(), cmppower.Apps(), counts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		outs4, err := rig.SweepScenarioIIWith(context.Background(), fig4, counts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range append(outs, outs4...) {
			if o.Err != nil {
				b.Fatalf("%s: %v", o.App, o.Err)
			}
		}
	}
}

// BenchmarkTable2Catalog measures workload instantiation (Table 2): the
// cost of building and draining one thread of each application model.
func BenchmarkTable2Catalog(b *testing.B) {
	apps := cmppower.Apps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range apps {
			p := a.Program(0.05)
			if err := p.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationLeakage sweeps the leakage voltage sensitivity (study
// A1): the Scenario II peak must fall and move earlier as βv weakens.
func BenchmarkAblationLeakage(b *testing.B) {
	var weak, strong cmppower.AnalyticPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bv := range []float64{1.0, 2.5} {
			tech := cmppower.Tech65()
			tech.LeakBetaV = bv
			m, err := cmppower.NewAnalyticModel(tech)
			if err != nil {
				b.Fatal(err)
			}
			p, err := m.PeakSpeedup(1)
			if err != nil {
				b.Fatal(err)
			}
			if bv == 1.0 {
				weak = p
			} else {
				strong = p
			}
		}
	}
	b.ReportMetric(weak.Speedup, "peak@betav1.0")
	b.ReportMetric(strong.Speedup, "peak@betav2.5")
	if weak.Speedup >= strong.Speedup {
		b.Fatalf("ablation inverted: weak leakage sensitivity peak %g >= strong %g",
			weak.Speedup, strong.Speedup)
	}
}

// BenchmarkAblationVmin sweeps the noise-margin floor (study A2).
func BenchmarkAblationVmin(b *testing.B) {
	var low, high cmppower.AnalyticPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []float64{2.5, 4.0} {
			tech := cmppower.Tech130()
			tech.VminOverVth = k
			m, err := cmppower.NewAnalyticModel(tech)
			if err != nil {
				b.Fatal(err)
			}
			p, err := m.PeakSpeedup(1)
			if err != nil {
				b.Fatal(err)
			}
			if k == 2.5 {
				low = p
			} else {
				high = p
			}
		}
	}
	b.ReportMetric(low.Speedup, "peak@vmin2.5vth")
	b.ReportMetric(high.Speedup, "peak@vmin4vth")
	if high.Speedup >= low.Speedup {
		b.Fatalf("ablation inverted: higher Vmin floor peak %g >= lower %g",
			high.Speedup, low.Speedup)
	}
}

// BenchmarkAblationSystemDVFS contrasts chip-wide and system-wide scaling
// (study A3) on the memory-bound Radix: the memory-gap speedup bonus of
// Scenario I must vanish under system-wide scaling.
func BenchmarkAblationSystemDVFS(b *testing.B) {
	chip, err := experiment.NewRig(0.2)
	if err != nil {
		b.Fatal(err)
	}
	system, err := experiment.NewRig(0.2)
	if err != nil {
		b.Fatal(err)
	}
	system.ScaleMemoryWithChip = true
	app, err := splash.ByName("Radix")
	if err != nil {
		b.Fatal(err)
	}
	var chipS, sysS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, err := chip.ScenarioI(app, []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		rs, err := system.ScenarioI(app, []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		chipS = rc.Rows[0].ActualSpeedup
		sysS = rs.Rows[0].ActualSpeedup
	}
	b.ReportMetric(chipS, "speedup-chipwide")
	b.ReportMetric(sysS, "speedup-systemwide")
	if sysS >= chipS {
		b.Fatalf("ablation inverted: system-wide %g >= chip-wide %g", sysS, chipS)
	}
}

// BenchmarkCrossValidate runs the E5 cross-validation (analytical model
// vs simulator) and reports the agreement metrics.
func BenchmarkCrossValidate(b *testing.B) {
	rig, err := cmppower.NewExperiment(0.2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := cmppower.NewAnalyticModel(rig.Tech)
	if err != nil {
		b.Fatal(err)
	}
	app, err := cmppower.AppByName("Barnes")
	if err != nil {
		b.Fatal(err)
	}
	var powerMARE, speedupMARE float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv, err := rig.CrossValidate(app, []int{1, 2, 4, 8}, m)
		if err != nil {
			b.Fatal(err)
		}
		powerMARE, speedupMARE = cv.Agreement()
	}
	b.ReportMetric(powerMARE, "power-MARE")
	b.ReportMetric(speedupMARE, "speedup-MARE")
}

// BenchmarkEDPSweep runs the energy-metric sweep (extension E8).
func BenchmarkEDPSweep(b *testing.B) {
	rig, err := cmppower.NewExperiment(0.2)
	if err != nil {
		b.Fatal(err)
	}
	app, err := cmppower.AppByName("FFT")
	if err != nil {
		b.Fatal(err)
	}
	var bestN float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep, err := rig.Metrics(app, []int{1, 4, 16}, []float64{1.6e9, 3.2e9})
		if err != nil {
			b.Fatal(err)
		}
		bestN = float64(sweep.BestEDP.N)
	}
	b.ReportMetric(bestN, "best-EDP-N")
}

// BenchmarkAblationThrifty compares barrier policies (extension A5).
func BenchmarkAblationThrifty(b *testing.B) {
	rig, err := cmppower.NewExperiment(0.2)
	if err != nil {
		b.Fatal(err)
	}
	app, err := cmppower.AppByName("Volrend")
	if err != nil {
		b.Fatal(err)
	}
	var saving float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rig.ThriftyBarrier(app, 8, rig.Table.Nominal())
		if err != nil {
			b.Fatal(err)
		}
		saving = res.SavingFraction
	}
	b.ReportMetric(saving, "energy-saving")
	if saving <= 0 {
		b.Fatal("thrifty barriers saved nothing")
	}
}

// BenchmarkSimulatorThroughput measures raw engine speed in simulated
// instructions per second on a 16-core run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tab, err := cmppower.NewDVFSTable(cmppower.Tech65())
	if err != nil {
		b.Fatal(err)
	}
	app, err := cmppower.AppByName("Ocean")
	if err != nil {
		b.Fatal(err)
	}
	prog := app.Program(0.5)
	cfg := cmppower.DefaultSimConfig(16, tab.Nominal())
	cfg.Core = app.CoreConfig()
	var instr int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cmppower.Simulate(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		instr = res.Instructions
	}
	b.ReportMetric(float64(instr), "sim-instructions/op")
}

// serveMixSink keeps BenchmarkServeMixRun's simulations observable.
var serveMixSink int64

// BenchmarkServeMixRun runs the simulations behind the serve-exact
// benchmark mix directly, one per iteration: 8 apps × N ∈ {1,2,4,8,16} ×
// {3200, 2400, 1760} MHz at the server's default scale 0.1, each with a
// fresh seed, as every uncached exact /v1/run simulates. B/op is what one
// such simulation allocates.
func BenchmarkServeMixRun(b *testing.B) {
	tab, err := cmppower.NewDVFSTable(cmppower.Tech65())
	if err != nil {
		b.Fatal(err)
	}
	type job struct {
		prog *cmppower.Program
		cfg  cmppower.SimConfig
	}
	var jobs []job
	for _, name := range []string{"FFT", "LU", "Ocean", "Radix", "Barnes", "FMM", "Water-Sp", "Cholesky"} {
		app, err := cmppower.AppByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog := app.Program(0.1)
		for _, n := range []int{1, 2, 4, 8, 16} {
			for _, mhz := range []float64{3200, 2400, 1760} {
				cfg := cmppower.DefaultSimConfig(n, tab.PointFor(mhz*1e6))
				cfg.Core = app.CoreConfig()
				jobs = append(jobs, job{prog: prog, cfg: cfg})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		j.cfg.Seed = uint64(i) + 1
		res, err := cmppower.Simulate(j.prog, j.cfg)
		if err != nil {
			b.Fatal(err)
		}
		serveMixSink = res.Instructions
	}
}

// BenchmarkAnalyticScenarioII measures one budget-constrained solve with
// its thermal fixed point — the inner kernel of the Fig. 2 sweep.
func BenchmarkAnalyticScenarioII(b *testing.B) {
	m, err := cmppower.NewAnalyticModel(cmppower.Tech65())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ScenarioII(16, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

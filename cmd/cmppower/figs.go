package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cmppower"
	"cmppower/internal/report"
)

// techsFor resolves the -tech flag.
func techsFor(sel string) ([]cmppower.Technology, error) {
	switch sel {
	case "65":
		return []cmppower.Technology{cmppower.Tech65()}, nil
	case "130":
		return []cmppower.Technology{cmppower.Tech130()}, nil
	case "both":
		return []cmppower.Technology{cmppower.Tech130(), cmppower.Tech65()}, nil
	}
	return nil, fmt.Errorf("unknown -tech %q (want 65, 130 or both)", sel)
}

// emit writes the table as text or CSV.
func emit(t *report.Table, csv bool) error {
	if csv {
		return t.WriteCSV(os.Stdout)
	}
	return t.WriteText(os.Stdout)
}

// runFig1 regenerates paper Figure 1: normalized power consumption vs
// nominal parallel efficiency for N ∈ {2,4,8,16,32}.
func runFig1(args []string) error {
	fs := flag.NewFlagSet("fig1", flag.ExitOnError)
	techSel := fs.String("tech", "both", "technology: 65, 130 or both")
	points := fs.Int("points", 20, "efficiency grid points")
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	techs, err := techsFor(*techSel)
	if err != nil {
		return err
	}
	grid, err := cmppower.EpsGrid(0.05, 1.0, *points)
	if err != nil {
		return err
	}
	for _, tech := range techs {
		m, err := cmppower.NewAnalyticModel(tech)
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("Figure 1 (%s, T1=100C): normalized power P_N/P_1 vs nominal parallel efficiency", tech.Name),
			"eps", "N=2", "N=4", "N=8", "N=16", "N=32")
		ns := []int{2, 4, 8, 16, 32}
		for _, eps := range grid {
			cells := []string{report.F(eps, 3)}
			for _, n := range ns {
				op, err := m.ScenarioI(n, eps)
				if err != nil {
					return err
				}
				if !op.Feasible {
					cells = append(cells, "-")
				} else {
					cells = append(cells, report.F(op.NormPower, 3))
				}
			}
			if err := t.AddRow(cells...); err != nil {
				return err
			}
		}
		if err := emit(t, *csv); err != nil {
			return err
		}
		for _, n := range ns {
			if be, err := m.BreakEven(n); err == nil {
				fmt.Printf("break-even efficiency N=%d: %.3f\n", n, be)
			} else {
				fmt.Printf("break-even efficiency N=%d: never (static floor)\n", n)
			}
		}
		fmt.Println()
	}
	return nil
}

// runFig2 regenerates paper Figure 2: speedup under the single-core power
// budget with ε_n = 1.
func runFig2(args []string) error {
	fs := flag.NewFlagSet("fig2", flag.ExitOnError)
	techSel := fs.String("tech", "both", "technology: 65, 130 or both")
	csv := fs.Bool("csv", false, "emit CSV")
	chart := fs.Bool("chart", false, "render ASCII chart")
	eps := fs.Float64("eps", 1.0, "nominal parallel efficiency")
	if err := fs.Parse(args); err != nil {
		return err
	}
	techs, err := techsFor(*techSel)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 2: speedup of N-core configurations under the 1-core power budget (eps=%g)", *eps),
		"N", "tech", "speedup", "f/f1", "V", "T(C)", "atVmin")
	for _, tech := range techs {
		m, err := cmppower.NewAnalyticModel(tech)
		if err != nil {
			return err
		}
		curve, err := m.Fig2Curve(32, *eps)
		if err != nil {
			return err
		}
		var xs, ys []float64
		for _, op := range curve {
			if err := t.AddRow(report.I(op.N), tech.Name, report.F(op.Speedup, 2),
				report.F(op.FreqRatio, 3), report.F(op.Volt, 3),
				report.F(op.TempC, 1), fmt.Sprint(op.AtVmin)); err != nil {
				return err
			}
			xs = append(xs, float64(op.N))
			ys = append(ys, op.Speedup)
		}
		if *chart {
			s, err := report.AsciiChart("speedup vs N — "+tech.Name, xs, ys, 64, 12)
			if err != nil {
				return err
			}
			fmt.Println(s)
		}
		best, err := m.PeakSpeedup(*eps)
		if err != nil {
			return err
		}
		fmt.Printf("%s: peak speedup %.2f at N=%d\n", tech.Name, best.Speedup, best.N)
	}
	fmt.Println()
	return emit(t, *csv)
}

// appsFor resolves the -apps flag (comma-separated names, or "all").
func appsFor(sel string) ([]cmppower.App, error) {
	if sel == "all" {
		return cmppower.Apps(), nil
	}
	var out []cmppower.App
	for _, name := range strings.Split(sel, ",") {
		a, err := cmppower.AppByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// runFig3 regenerates paper Figure 3: the five Scenario I panels for the
// SPLASH-2 applications on N ∈ {1,2,4,8,16}.
func runFig3(args []string) error {
	fs := flag.NewFlagSet("fig3", flag.ExitOnError)
	appSel := fs.String("apps", "all", "comma-separated application names, or all")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	seed := fs.Uint64("seed", 1, "workload seed")
	csv := fs.Bool("csv", false, "emit CSV")
	faultSpec := fs.String("faults", "", "fault-injection spec, e.g. sensor-noise=2,dvfs-fail=0.1 (see README)")
	timeout := fs.Duration("timeout", 0, "abort the whole sweep after this duration (0 = none)")
	dtm := fs.Bool("dtm", false, "run the DTM controller on every run and report its summary")
	retries := fs.Int("retries", 3, "attempts per app for injected-transient failures")
	jobs := fs.Int("j", 0, "sweep worker count; 0 = GOMAXPROCS (output is identical for every -j)")
	scnF := addScenarioFlag(fs)
	obsF := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	apps, err := appsFor(*appSel)
	if err != nil {
		return err
	}
	rig, err := scnF.rig(*scale)
	if err != nil {
		return err
	}
	counts, err := scnF.counts()
	if err != nil {
		return err
	}
	rig.Seed = *seed
	rig.Obs = obsF.registry()
	if err := applyResilienceFlags(rig, *faultSpec, *seed, *dtm); err != nil {
		return err
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()
	rc := cmppower.DefaultRetryConfig()
	rc.Attempts = *retries
	outcomes, sweepErr := rig.SweepScenarioIWith(ctx, apps, counts,
		cmppower.SweepConfig{Retry: rc, Workers: *jobs})
	t := report.NewTable(
		"Figure 3: Scenario I on the 16-way CMP (performance target = 1 core at nominal V/f)",
		"app", "N", "nominal-eff", "actual-speedup", "norm-power", "norm-density", "avg-temp(C)", "f(MHz)", "V")
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "fig3: %s failed after %d attempt(s): %v\n", o.App, o.Attempts, o.Err)
			continue
		}
		res := o.I
		if err := t.AddRow(o.App, "1", "1.000", "1.00", "1.00", "1.00",
			report.F(res.Baseline.AvgCoreTempC, 1),
			report.MHz(res.Baseline.Point.Freq), report.F(res.Baseline.Point.Volt, 3)); err != nil {
			return err
		}
		for _, row := range res.Rows {
			if err := t.AddRow(o.App, report.I(row.N),
				report.F(row.NominalEff, 3), report.F(row.ActualSpeedup, 2),
				report.F(row.NormPower, 3), report.F(row.NormDensity, 3),
				report.F(row.AvgTempC, 1),
				report.MHz(row.Point.Freq), report.F(row.Point.Volt, 3)); err != nil {
				return err
			}
		}
	}
	if err := emit(t, *csv); err != nil {
		return err
	}
	for _, o := range outcomes {
		if o.Err == nil {
			printDTMSummary(o.App, o.I.DTM)
		}
	}
	var modeled float64
	for _, o := range outcomes {
		if o.Err == nil {
			modeled += o.I.ModeledSeconds()
		}
	}
	config, err := scnF.annotate(map[string]string{
		"apps": *appSel, "scale": fmt.Sprint(*scale), "counts": countsLabel(counts),
		"faults": *faultSpec, "dtm": fmt.Sprint(*dtm), "retries": fmt.Sprint(*retries),
	})
	if err != nil {
		return err
	}
	if err := obsF.write("fig3", config, *seed, *faultSpec, modeled, *jobs); err != nil {
		return err
	}
	return sweepErr
}

// runFig4 regenerates paper Figure 4: nominal vs actual speedup under the
// single-core power budget for Cholesky, FMM and Radix.
func runFig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ExitOnError)
	appSel := fs.String("apps", "Cholesky,FMM,Radix", "comma-separated application names, or all")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	seed := fs.Uint64("seed", 1, "workload seed")
	csv := fs.Bool("csv", false, "emit CSV")
	chart := fs.Bool("chart", false, "render ASCII charts")
	faultSpec := fs.String("faults", "", "fault-injection spec, e.g. sensor-noise=2,dvfs-fail=0.1 (see README)")
	timeout := fs.Duration("timeout", 0, "abort the whole sweep after this duration (0 = none)")
	dtm := fs.Bool("dtm", false, "run the DTM controller on every run and report its summary")
	retries := fs.Int("retries", 3, "attempts per app for injected-transient failures")
	jobs := fs.Int("j", 0, "sweep worker count; 0 = GOMAXPROCS (output is identical for every -j)")
	scnF := addScenarioFlag(fs)
	obsF := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	apps, err := appsFor(*appSel)
	if err != nil {
		return err
	}
	rig, err := scnF.rig(*scale)
	if err != nil {
		return err
	}
	counts, err := scnF.counts()
	if err != nil {
		return err
	}
	rig.Seed = *seed
	rig.Obs = obsF.registry()
	if err := applyResilienceFlags(rig, *faultSpec, *seed, *dtm); err != nil {
		return err
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()
	rc := cmppower.DefaultRetryConfig()
	rc.Attempts = *retries
	outcomes, sweepErr := rig.SweepScenarioIIWith(ctx, apps, counts,
		cmppower.SweepConfig{Retry: rc, Workers: *jobs})
	t := report.NewTable(
		fmt.Sprintf("Figure 4: speedup under the 1-core power budget (%.1f W)", rig.BudgetW()),
		"app", "N", "nominal", "actual", "f(MHz)", "power(W)", "at-nominal")
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "fig4: %s failed after %d attempt(s): %v\n", o.App, o.Attempts, o.Err)
			continue
		}
		res := o.II
		var xs, nom, act []float64
		for _, row := range res.Rows {
			if err := t.AddRow(o.App, report.I(row.N),
				report.F(row.NominalSpeedup, 2), report.F(row.ActualSpeedup, 2),
				report.MHz(row.Point.Freq), report.F(row.PowerW, 2),
				fmt.Sprint(row.AtNominal)); err != nil {
				return err
			}
			xs = append(xs, float64(row.N))
			nom = append(nom, row.NominalSpeedup)
			act = append(act, row.ActualSpeedup)
		}
		if *chart && len(xs) >= 2 {
			s, err := report.AsciiChart(o.App+" nominal speedup", xs, nom, 48, 8)
			if err != nil {
				return err
			}
			fmt.Println(s)
			s, err = report.AsciiChart(o.App+" actual speedup (budgeted)", xs, act, 48, 8)
			if err != nil {
				return err
			}
			fmt.Println(s)
		}
	}
	if err := emit(t, *csv); err != nil {
		return err
	}
	for _, o := range outcomes {
		if o.Err == nil {
			printDTMSummary(o.App, o.II.DTM)
		}
	}
	var modeled float64
	for _, o := range outcomes {
		if o.Err == nil {
			modeled += o.II.ModeledSeconds()
		}
	}
	config, err := scnF.annotate(map[string]string{
		"apps": *appSel, "scale": fmt.Sprint(*scale), "counts": countsLabel(counts),
		"faults": *faultSpec, "dtm": fmt.Sprint(*dtm), "retries": fmt.Sprint(*retries),
	})
	if err != nil {
		return err
	}
	if err := obsF.write("fig4", config, *seed, *faultSpec, modeled, *jobs); err != nil {
		return err
	}
	return sweepErr
}

package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cmppower"
	"cmppower/internal/core"
	"cmppower/internal/experiment"
	"cmppower/internal/render"
	"cmppower/internal/report"
)

// runClassify prints the CPI stack and workload class of every application.
func runClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	scale := fs.Float64("scale", 0.6, "workload scale factor")
	n := fs.Int("n", 1, "active cores")
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rig, err := cmppower.NewExperiment(*scale)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Workload classification (N=%d, nominal V/f)", *n),
		"app", "CPI", "compute", "memory", "branch", "fetch", "idle", "class")
	for _, app := range cmppower.Apps() {
		if !app.RunsOn(*n) {
			continue
		}
		st, err := rig.Classify(app, *n)
		if err != nil {
			return err
		}
		if err := t.AddRow(app.Name, report.F(st.CPI, 2),
			report.F(st.ComputeShare, 2), report.F(st.MemShare, 2),
			report.F(st.BranchShare, 2), report.F(st.FetchShare, 2),
			report.F(st.IdleShare, 2), string(st.Class)); err != nil {
			return err
		}
	}
	return emit(t, *csv)
}

// runPareto prints the analytical speedup/power Pareto frontier.
func runPareto(args []string) error {
	fs := flag.NewFlagSet("pareto", flag.ExitOnError)
	techSel := fs.String("tech", "65", "technology: 65 or 130")
	serial := fs.Float64("serial", 0, "efficiency model serial fraction")
	comm := fs.Float64("comm", 0, "efficiency model communication overhead")
	csv := fs.Bool("csv", false, "emit CSV")
	chart := fs.Bool("chart", false, "render ASCII chart")
	if err := fs.Parse(args); err != nil {
		return err
	}
	techs, err := techsFor(*techSel)
	if err != nil {
		return err
	}
	em := core.EfficiencyModel{Serial: *serial, Comm: *comm}
	for _, tech := range techs {
		m, err := cmppower.NewAnalyticModel(tech)
		if err != nil {
			return err
		}
		frontier, err := m.Pareto(32, 64, em.Eps)
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("Pareto frontier (%s, eps model serial=%g comm=%g)", tech.Name, *serial, *comm),
			"speedup", "norm-power", "N", "f/f1", "V")
		var xs, ys []float64
		for _, op := range frontier {
			if err := t.AddRow(report.F(op.Speedup, 2), report.F(op.NormPower, 3),
				report.I(op.N), report.F(op.FreqRatio, 3), report.F(op.Volt, 3)); err != nil {
				return err
			}
			xs = append(xs, op.Speedup)
			ys = append(ys, op.NormPower)
		}
		if err := emit(t, *csv); err != nil {
			return err
		}
		if *chart && len(xs) >= 2 {
			s, err := report.AsciiChart("norm power vs speedup — "+tech.Name, xs, ys, 64, 14)
			if err != nil {
				return err
			}
			fmt.Println(s)
		}
	}
	return nil
}

// runSVG writes a thermal-map SVG of one application run.
func runSVG(args []string) error {
	fs := flag.NewFlagSet("svg", flag.ExitOnError)
	appName := fs.String("app", "FMM", "application name")
	n := fs.Int("n", 1, "active cores")
	scale := fs.Float64("scale", 0.5, "workload scale factor")
	freqMHz := fs.Float64("freq", 3200, "operating frequency in MHz")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	app, err := cmppower.AppByName(*appName)
	if err != nil {
		return err
	}
	rig, err := experiment.NewRig(*scale)
	if err != nil {
		return err
	}
	point := rig.Table.PointFor(*freqMHz * 1e6)
	// One run through the rig's pipeline gives both the title's power
	// and the per-block temperatures the map is coloured by.
	_, pw, err := rig.Simulate(context.Background(), app, *n, point, nil)
	if err != nil {
		return err
	}
	opts := render.DefaultOptions(fmt.Sprintf("%s on %d core(s) at %s — %.2f W, avg %.1f °C",
		app.Name, *n, point, pw.TotalW, pw.AvgCoreTemp))
	svg, err := render.FloorplanSVG(rig.FP, pw.TempC, opts)
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Print(svg)
		return nil
	}
	return os.WriteFile(*out, []byte(svg), 0o644)
}

// runCacheSweep measures an application's sensitivity to L1 capacity
// across core counts (the aggregate-capacity mechanism behind superlinear
// efficiency).
func runCacheSweep(args []string) error {
	fs := flag.NewFlagSet("cachesweep", flag.ExitOnError)
	appName := fs.String("app", "Ocean", "application name")
	scale := fs.Float64("scale", 0.5, "workload scale factor")
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	app, err := cmppower.AppByName(*appName)
	if err != nil {
		return err
	}
	rig, err := cmppower.NewExperiment(*scale)
	if err != nil {
		return err
	}
	sweep, err := rig.CacheSweepL1(app, []int{16, 32, 64, 128}, []int{1, 4, 16})
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("L1 capacity sweep: %s (nominal V/f)", app.Name),
		"L1(KB)", "N", "miss-rate", "CPI", "time(ms)", "nominal-eff")
	for _, row := range sweep.Rows {
		if err := t.AddRow(report.I(row.L1KB), report.I(row.N),
			report.F(row.MissRate, 4), report.F(row.CPI, 2),
			report.F(row.Seconds*1e3, 3), report.F(row.NominalEff, 3)); err != nil {
			return err
		}
	}
	return emit(t, *csv)
}

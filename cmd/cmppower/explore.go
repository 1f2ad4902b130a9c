package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cmppower"
	"cmppower/internal/explore"
	"cmppower/internal/report"
	"cmppower/internal/splash"
	"cmppower/internal/surrogate"
)

// runExplore runs the iso-area design-space exploration: few wide cores vs
// many narrow cores vs a bigger L2, per application.
func runExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	appSel := fs.String("apps", "Barnes,FMM,Ocean,Radix", "comma-separated application names, or all")
	scale := fs.Float64("scale", 0.3, "workload scale factor")
	csv := fs.Bool("csv", false, "emit CSV")
	jobs := fs.Int("j", 0, "worker count; 0 = GOMAXPROCS (output is identical for every -j)")
	useSurr := fs.Bool("surrogate", false, "warm per-app surrogate fits first and skip simulating clearly-dominated cells")
	scnF := addScenarioFlag(fs)
	obsF := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var apps []splash.App
	if *appSel == "all" {
		apps = splash.Catalog()
	} else {
		publicApps, err := appsFor(*appSel)
		if err != nil {
			return err
		}
		apps = publicApps
	}
	sc, err := scnF.scenario()
	if err != nil {
		return err
	}
	// -surrogate warms per-app fits on the chip first; the store they
	// land in is what lets the exploration prune.
	var store *surrogate.Store
	var keyFor func(string) surrogate.Key
	if *useSurr {
		rig, err := scnF.rig(*scale)
		if err != nil {
			return err
		}
		rig.EnableMemo()
		store = surrogate.NewStore(surrogate.Options{Registry: obsF.registry()})
		rig.Surrogate = store
		if err := warmSurrogateGrid(context.Background(), rig, apps); err != nil {
			return err
		}
		keyFor = rig.SurrogateKey
	}
	cells, err := explore.Explore(context.Background(), apps, explore.StandardOptions(),
		sc, *scale, *jobs, obsF.registry(), store, keyFor)
	if err != nil {
		return err
	}
	outs := explore.Outcomes(cells)
	header := []string{"app", "option", "cores(threads)", "time(ms)", "power(W)", "energy(mJ)", "EDP(uJ*s)", "speedup-vs-16x"}
	if *useSurr {
		header = append(header, "source")
	}
	t := report.NewTable(
		"Design-space exploration: fixed die, fixed thermal envelope, nominal V/f",
		header...)
	for i, o := range outs {
		row := []string{o.App, o.Option.Name,
			fmt.Sprintf("%d(%d)", o.Option.Cores, o.N),
			report.F(o.Seconds*1e3, 3), report.F(o.PowerW, 2),
			report.F(o.EnergyJ*1e3, 3), report.F(o.EDP*1e6, 4),
			report.F(o.Speedup, 2)}
		if *useSurr {
			row = append(row, cells[i].Source)
		}
		if err := t.AddRow(row...); err != nil {
			return err
		}
	}
	if err := emit(t, *csv); err != nil {
		return err
	}
	if *useSurr {
		pruned := 0
		for _, c := range cells {
			if c.Source == "surrogate" {
				pruned++
			}
		}
		fmt.Printf("\nsurrogate pruning: %d cell(s) simulated, %d pruned (margin > %g)\n",
			len(cells)-pruned, pruned, explore.PruneMargin)
	}
	fmt.Println()
	// Print in app-catalog (outcome) order, not map order, so the output
	// is deterministic run to run.
	best := explore.BestByEDP(outs)
	seen := make(map[string]bool)
	for _, o := range outs {
		if seen[o.App] {
			continue
		}
		seen[o.App] = true
		fmt.Printf("%-10s best EDP: %s\n", o.App, best[o.App].Option.Name)
	}
	var modeled float64
	for _, o := range outs {
		modeled += o.Seconds
	}
	config, err := scnF.annotate(map[string]string{
		"apps": *appSel, "scale": fmt.Sprint(*scale), "options": "standard",
	})
	if err != nil {
		return err
	}
	return obsF.write("explore", config, 1, "", modeled, *jobs)
}

// runEDP sweeps one application over cores × frequencies under the
// energy/EDP/ED²P metric family.
func runEDP(args []string) error {
	fs := flag.NewFlagSet("edp", flag.ExitOnError)
	appName := fs.String("app", "FFT", "application name")
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
	sweep, err := rig.Metrics(app, []int{1, 2, 4, 8, 16},
		[]float64{800e6, 1.6e9, 2.4e9, 3.2e9})
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Energy metrics: %s across cores and frequency", app.Name),
		"N", "f(MHz)", "time(ms)", "power(W)", "energy(mJ)", "EDP(uJ*s)", "ED2P")
	for _, row := range sweep.Rows {
		if err := t.AddRow(report.I(row.N), report.MHz(row.Point.Freq),
			report.F(row.Seconds*1e3, 3), report.F(row.PowerW, 2),
			report.F(row.EnergyJ*1e3, 3), report.F(row.EDP*1e6, 4),
			report.G(row.ED2P)); err != nil {
			return err
		}
	}
	if err := emit(t, *csv); err != nil {
		return err
	}
	fmt.Fprintf(os.Stdout, "\nbest energy: N=%d @ %s | best EDP: N=%d @ %s | best ED2P: N=%d @ %s\n",
		sweep.BestEnergy.N, sweep.BestEnergy.Point,
		sweep.BestEDP.N, sweep.BestEDP.Point,
		sweep.BestED2P.N, sweep.BestED2P.Point)
	return nil
}

package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cmppower"
	"cmppower/internal/report"
)

// runBench tabulates the run manifests under -manifests DIR. Timing the
// simulator's layers is the job of `go run ./scripts/benchgate BASE`,
// which runs the Go benchmarks of the working tree and of a base commit
// side by side.
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	manifests := fs.String("manifests", "", "verify and tabulate the run manifests in this `dir`")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *manifests == "" {
		return fmt.Errorf("bench: -manifests DIR is required")
	}
	return benchManifests(*manifests)
}

// benchManifests aggregates the run manifests under dir (written by the
// -manifest flag of fig3/fig4/explore): every *.json that parses as a
// manifest has its digest re-verified against its canonical bytes, then
// the set is tabulated for a sweep-campaign overview. Other JSON files
// sharing the directory are skipped. A tampered or truncated manifest
// fails the command.
func benchManifests(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	t := report.NewTable(
		fmt.Sprintf("Run manifests under %s (digests verified)", dir),
		"file", "command", "version", "runs", "modeled(s)", "wall(s)", "j", "digest")
	n := 0
	for _, p := range paths {
		m, err := cmppower.ReadRunManifest(p)
		if err != nil {
			if strings.Contains(err.Error(), "manifest schema") ||
				strings.Contains(err.Error(), "cannot unmarshal") {
				continue // some other JSON artifact sharing the directory
			}
			return err
		}
		if err := m.VerifyDigest(); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		var runs int64
		for _, met := range m.Metrics {
			if met.Name == "engine_runs_total" {
				runs = int64(met.Value)
			}
		}
		wall, workers := 0.0, 0
		if m.Volatile != nil {
			wall, workers = m.Volatile.WallSeconds, m.Volatile.Workers
		}
		if err := t.AddRow(filepath.Base(p), m.Command, m.GitVersion,
			fmt.Sprint(runs), report.F(m.ModeledSeconds, 4), report.F(wall, 2),
			fmt.Sprint(workers), m.Digest[:12]); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("bench: no run manifests under %s", dir)
	}
	if err := t.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\n%d manifest(s), all digests verified\n", n)
	return nil
}

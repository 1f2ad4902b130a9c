package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the golden files from the current output instead of
// comparing against them:
//
//	go test ./cmd/cmppower -run TestGolden -update
//
// Review the diff of testdata/golden/ before committing — a golden change
// is a deliberate output-format or model change, never noise (the
// simulator and the report layer are deterministic, so any diff is real).
var update = flag.Bool("update", false, "rewrite golden files from current output")

// captureStdout runs one CLI command function with os.Stdout redirected to
// a scratch file (the same withStdout mechanism `cmppower all` uses) and
// returns what it printed.
func captureStdout(t *testing.T, fn func([]string) error, args []string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout.txt")
	if err := withStdout(path, func() error { return fn(args) }); err != nil {
		t.Fatalf("command %v: %v", args, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkGolden compares got against testdata/golden/<name>, rewriting the
// file under -update. On mismatch it reports the first differing line, not
// the whole blob.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s — run `go test ./cmd/cmppower -run TestGolden -update` (%v)", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("%s: output diverged from golden file%s", name, firstDiff(want, got))
}

// firstDiff locates the first line where want and got disagree.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		wl, gl := "<eof>", "<eof>"
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("\n  line %d:\n    golden: %q\n    got:    %q", i+1, wl, gl)
		}
	}
	return " (lengths differ)"
}

// TestGoldenFig3 pins the small-N fig3 table: Scenario I efficiency,
// speedup, power, density, and temperature columns for two applications.
// Worker count must not matter, so it runs at -j 2 while the golden file
// was written at whatever -j the -update run used.
func TestGoldenFig3(t *testing.T) {
	got := captureStdout(t, runFig3,
		[]string{"-apps", "FFT,LU", "-scale", "0.1", "-j", "2"})
	checkGolden(t, "fig3_small.txt", got)
}

// TestGoldenFig4 pins the small-N fig4 table: Scenario II nominal vs
// actual speedup under the power budget.
func TestGoldenFig4(t *testing.T) {
	got := captureStdout(t, runFig4,
		[]string{"-apps", "Cholesky,Radix", "-scale", "0.1", "-j", "2"})
	checkGolden(t, "fig4_small.txt", got)
}

// TestGoldenEvents pins the engine's JSONL event-trace encoding — field
// names, ordering, and the trace ring-buffer tail semantics — which
// external tooling consumes via `cmppower events -out`.
func TestGoldenEvents(t *testing.T) {
	got := captureStdout(t, runEvents,
		[]string{"-app", "FFT", "-n", "2", "-scale", "0.05", "-last", "25", "-jsonl"})
	checkGolden(t, "events_fft.jsonl", got)
}

// TestGoldenExplore pins the design-space exploration table for one
// application across all five standard organizations.
func TestGoldenExplore(t *testing.T) {
	got := captureStdout(t, runExplore,
		[]string{"-apps", "Radix", "-scale", "0.1", "-j", "2"})
	checkGolden(t, "explore_radix.txt", got)
}

// TestGoldenScenarioShow pins the `scenario show` rendering — summary
// lines, digest spelling, domain/class/stacking formatting — for the
// checked-in example scenarios. The digests in these files double as
// the cross-host canonical-form pin: a digest change means the schema
// or the normalization changed, never noise.
func TestGoldenScenarioShow(t *testing.T) {
	for _, name := range []string{"baseline-2005", "biglittle", "3dstack", "manycore128"} {
		got := captureStdout(t, runScenario,
			[]string{"show", "../../examples/scenarios/" + name + ".json"})
		checkGolden(t, "scenario_show_"+name+".txt", got)
	}
}

// TestGoldenFig3Scenario pins fig3 run through the biglittle scenario:
// the heterogeneous path (DVFS domains + core classes) end to end
// through the CLI.
func TestGoldenFig3Scenario(t *testing.T) {
	got := captureStdout(t, runFig3,
		[]string{"-apps", "FFT", "-scale", "0.05", "-j", "2",
			"-scenario", "../../examples/scenarios/biglittle.json"})
	checkGolden(t, "fig3_biglittle.txt", got)
}

// TestGoldenFig3BigLittleDTM pins fig3 on the biglittle scenario with the
// per-domain DTM controller on, including the DTM summary lines.
func TestGoldenFig3BigLittleDTM(t *testing.T) {
	got := captureStdout(t, runFig3,
		[]string{"-apps", "FFT,Radix", "-scale", "0.05", "-j", "2", "-dtm",
			"-scenario", "../../examples/scenarios/biglittle.json"})
	checkGolden(t, "fig3_biglittle_dtm.txt", got)
}

// TestGoldenFig4DTM pins fig4 with the chip-wide DTM controller on.
func TestGoldenFig4DTM(t *testing.T) {
	got := captureStdout(t, runFig4,
		[]string{"-apps", "Cholesky,Radix", "-scale", "0.1", "-j", "2", "-dtm"})
	checkGolden(t, "fig4_dtm_small.txt", got)
}

// TestGoldenLoadgenPlan pins the traffic plan report for the checked-in
// example spec: `loadgen -spec FILE -plan` is a pure function of (spec,
// seed), so this golden file is the cross-host byte-determinism pin for
// the whole compile path (arrival processes, template draws, digest).
func TestGoldenLoadgenPlan(t *testing.T) {
	args := []string{"-spec", "../../examples/traffic/spec.json", "-plan"}
	got := captureStdout(t, runLoadgen, args)
	checkGolden(t, "loadgen_plan.json", got)

	// Determinism: a second invocation in the same process is
	// byte-identical; a seed override is not.
	again := captureStdout(t, runLoadgen, args)
	if !bytes.Equal(got, again) {
		t.Error("two -plan runs of the same spec differ")
	}
	reseeded := captureStdout(t, runLoadgen,
		[]string{"-spec", "../../examples/traffic/spec.json", "-plan", "-seed", "7"})
	if bytes.Equal(got, reseeded) {
		t.Error("-seed override produced the same plan")
	}
}

// TestGoldenSideExperiments pins the side experiments that assemble their
// own runs: workload classification, the L1 capacity sweep, the
// multiprogrammed mix, the transient trace, and the thrifty-barrier and
// placement ablations.
func TestGoldenSideExperiments(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func([]string) error
		args []string
	}{
		{"classify_n4.txt", runClassify, []string{"-scale", "0.05", "-n", "4"}},
		{"cachesweep_fft.txt", runCacheSweep, []string{"-app", "FFT", "-scale", "0.05"}},
		{"mix_fft_radix_lu.txt", runMix, []string{"-apps", "FFT,Radix,LU", "-scale", "0.05"}},
		{"trace_fft_n2.txt", runTrace, []string{"-app", "FFT", "-n", "2", "-scale", "0.05"}},
		{"ablate_thrifty.txt", runAblate, []string{"-what", "thrifty", "-scale", "0.05"}},
		{"ablate_placement.txt", runAblate, []string{"-what", "placement", "-scale", "0.05"}},
	} {
		checkGolden(t, c.name, captureStdout(t, c.fn, c.args))
	}
}

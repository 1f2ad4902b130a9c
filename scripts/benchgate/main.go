// Command benchgate judges the speed of the working tree against a base
// commit, both measured on this host in one session:
//
//	go run ./scripts/benchgate BASE
//
// It checks BASE out into a temporary git worktree, builds one test binary
// per basket package from each tree, and runs the basket's Go benchmarks at
// fixed iteration counts for a fixed number of rounds, each binary from its
// own package directory. Within a round every benchmark runs once per side,
// back to back: BASE first in even rounds, HEAD (the working tree) first in
// odd ones, so a drift in the host's speed falls on both sides alike. Each
// result line of a benchmark (one per sub-benchmark) gives one HEAD/BASE
// ns/op ratio per round, and the benchmark's score is the median of those
// ratios. The gate fails when a score exceeds 1 + its bound, or when the
// working tree lacks a basket benchmark; one that BASE lacks is reported
// but not gated. The report prints each side's median per-unit cost, so a
// speed claim can quote it.
//
// Exit status: 0 when every score is within its bound, 1 when one is not,
// 2 when the gate could not run.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// rounds is the number of ABBA rounds, about three minutes on a 2-vCPU
// host. On a noisy host one round's ratio can be off by 20%, so the
// median needs many of them: at 20, a mutant that slowed the cache
// benchmark by about 11% scored 1.114 against its 1.08 bound, while 20
// A/A gates stayed within 0.94–1.09.
const rounds = 20

// bench is one basket benchmark, run as `-test.bench '^name$'
// -test.benchtime <iters>x` in package pkg.
type bench struct {
	pkg   string // package directory, relative to the module root
	name  string
	iters int
	// unit is the per-unit cost the report prints, read from the result's
	// metric and divided by scale.
	unit, metric string
	scale        float64
	// bound is the largest median slowdown allowed: the gate fails above
	// a HEAD/BASE ratio of 1 + bound.
	bound float64
}

// basket is the gated set: the cache, stream generation, the fused engine
// on the serve-exact mix, sampled runs, the thermal solve, and a whole
// fig3+fig4 campaign. Each run takes about half a second per side.
//
// The bounds come from 80 A/A rounds (identical binaries on both sides,
// this basket at these iteration counts) on a 2-vCPU host, where one
// result line's per-round ratio had an IQR of 14–31%. Each bound is the
// 99.75th percentile of the score over 3000 gates of 20 rounds resampled
// from them (noted after each entry), rounded up to a whole percent, and
// at least 3%: a benchmark fails an A/A gate about once in 400, and the
// whole gate about once in 70.
var basket = []bench{
	{"internal/cache", "BenchmarkHierarchyAccess", 100, "ns/access", "ns/access", 1, 0.08},       // 99.75th 1.075
	{"internal/workload", "BenchmarkStreamServeMix", 4000, "ns/event", "ns/event", 1, 0.10},      // 1.094
	{".", "BenchmarkServeMixRun", 600, "µs/run", "ns/op", 1e3, 0.08},                             // 1.072
	{"internal/cmp", "BenchmarkSampledOverhead", 3, "ms/sampled run", "sampled-ms", 1, 0.09},     // 1.089
	{"internal/thermal", "BenchmarkSteadyStateFactored", 100000, "µs/solve", "ns/op", 1e3, 0.09}, // 1.081
	{".", "BenchmarkCampaign", 1, "ms/campaign", "ns/op", 1e6, 0.12},                             // 1.114
}

// The two sides of a comparison, indexing per-side arrays.
const (
	base = iota
	head
)

var sideName = [2]string{"BASE", "HEAD"}

// order is the sides' running order in a round: ABBA, alternating from
// one round to the next.
func order(round int) [2]int {
	if round%2 == 0 {
		return [2]int{base, head}
	}
	return [2]int{head, base}
}

// result is one benchmark result line: ns/op and any custom metrics,
// keyed by unit.
type result map[string]float64

// line is a parsed result line.
type line struct {
	name string // without the -GOMAXPROCS suffix
	res  result
}

// parse reads the result lines of `go test -bench` output: a name, an
// iteration count, then value-unit pairs. Anything else is skipped.
func parse(out string) []line {
	var lines []line
	for _, text := range strings.Split(out, "\n") {
		f := strings.Fields(text)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		res := result{}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				res = nil
				break
			}
			res[f[i+1]] = v
		}
		if _, ok := res["ns/op"]; ok {
			lines = append(lines, line{trimProcs(f[0]), res})
		}
	}
	return lines
}

// trimProcs drops the -GOMAXPROCS suffix the testing package appends to a
// benchmark's name when GOMAXPROCS is above 1.
func trimProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// series is one basket benchmark's runs: per side, in round order, the
// result lines of each run keyed by name.
type series struct {
	b     *bench
	names []string // result line names, in first-seen order
	runs  [2][]map[string]result
}

// add files one run's lines, dropping those of other benchmarks.
func (s *series) add(side int, lines []line) {
	run := map[string]result{}
	for _, l := range lines {
		if l.name != s.b.name && !strings.HasPrefix(l.name, s.b.name+"/") {
			continue
		}
		if !slices.Contains(s.names, l.name) {
			s.names = append(s.names, l.name)
		}
		run[l.name] = l.res
	}
	s.runs[side] = append(s.runs[side], run)
}

// ratios are the benchmark's HEAD/BASE ns/op ratios: one per round for
// each result line both sides report in that round.
func (s *series) ratios() []float64 {
	var ratios []float64
	for i := range min(len(s.runs[base]), len(s.runs[head])) {
		for name, h := range s.runs[head][i] {
			if b, ok := s.runs[base][i][name]; ok {
				ratios = append(ratios, h["ns/op"]/b["ns/op"])
			}
		}
	}
	return ratios
}

// verdict is a benchmark's outcome.
type verdict struct {
	ratio float64 // median HEAD/BASE ns/op ratio; 0 when ungated
	fail  bool
	note  string
}

func (s *series) judge() verdict {
	ratios := s.ratios()
	switch {
	case !slices.ContainsFunc(s.runs[head], func(run map[string]result) bool { return len(run) > 0 }):
		return verdict{fail: true, note: "FAIL: missing at HEAD"}
	case len(ratios) == 0:
		return verdict{note: "missing at BASE, not gated"}
	}
	m := median(ratios)
	if m > 1+s.b.bound {
		return verdict{ratio: m, fail: true, note: "FAIL"}
	}
	return verdict{ratio: m, note: "ok"}
}

// cost is a side's median per-unit cost on one result line; 0 when the
// side never reported it.
func (s *series) cost(side int, name string) float64 {
	var v []float64
	for _, run := range s.runs[side] {
		if res, ok := run[name]; ok {
			v = append(v, res[s.b.metric]/s.b.scale)
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report prints each benchmark's verdict and its result lines' per-unit
// costs, and returns whether any benchmark failed.
func report(w io.Writer, all []*series) bool {
	num := func(v float64, prec int) string {
		if v == 0 {
			return "-"
		}
		return strconv.FormatFloat(v, 'f', prec, 64)
	}
	failed := false
	fmt.Fprintf(w, "%-40s %-15s %10s %10s %7s %7s\n", "benchmark", "unit", "BASE", "HEAD", "ratio", "bound")
	for _, s := range all {
		v := s.judge()
		failed = failed || v.fail
		fmt.Fprintf(w, "%-66s %7s %7.3f  %s\n", s.b.name, num(v.ratio, 3), 1+s.b.bound, v.note)
		for _, name := range s.names {
			fmt.Fprintf(w, "  %-38s %-15s %10s %10s\n", name, s.b.unit, num(s.cost(base, name), 2), num(s.cost(head, name), 2))
		}
	}
	return failed
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/benchgate BASE")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	failed, err := gate(ctx, os.Args[1])
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// gate measures the working tree against rev and prints the report.
func gate(ctx context.Context, rev string) (bool, error) {
	top, err := command(ctx, "", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	top = strings.TrimSpace(top)
	sha, err := command(ctx, top, "git", "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return false, err
	}
	sha = strings.TrimSpace(sha)
	tmp, err := os.MkdirTemp("", "benchgate-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	trees := [2]string{filepath.Join(tmp, "base"), top}
	if _, err := command(ctx, top, "git", "worktree", "add", "--detach", trees[base], sha); err != nil {
		return false, err
	}
	defer func() {
		if out, err := exec.Command("git", "-C", top, "worktree", "remove", "--force", trees[base]).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: removing the BASE worktree: %v\n%s", err, out)
		}
	}()

	// One test binary per side and package, built with -trimpath so that
	// identical sources give identical binaries in either tree.
	var bins [2]map[string]string
	for side, tree := range trees {
		bins[side] = map[string]string{}
		for _, b := range basket {
			if bins[side][b.pkg] != "" {
				continue
			}
			bin := filepath.Join(tmp, fmt.Sprintf("%s-%d.test", sideName[side], len(bins[side])))
			if _, err := command(ctx, tree, "go", "test", "-c", "-trimpath", "-o", bin, "./"+b.pkg); err != nil {
				return false, fmt.Errorf("%s: %w", sideName[side], err)
			}
			bins[side][b.pkg] = bin
		}
	}

	fmt.Printf("benchgate: working tree against BASE %.12s, %d rounds in ABBA order\n", sha, rounds)
	all := make([]*series, len(basket))
	for i := range basket {
		all[i] = &series{b: &basket[i]}
	}
	for round := range rounds {
		fmt.Fprintf(os.Stderr, "round %d/%d\n", round+1, rounds)
		for _, s := range all {
			for _, side := range order(round) {
				out, err := command(ctx, filepath.Join(trees[side], s.b.pkg), bins[side][s.b.pkg],
					"-test.run", "^$", "-test.bench", "^"+s.b.name+"$",
					"-test.benchtime", fmt.Sprintf("%dx", s.b.iters), "-test.timeout", "10m")
				if err != nil {
					return false, fmt.Errorf("%s at %s: %w", s.b.name, sideName[side], err)
				}
				s.add(side, parse(out))
			}
		}
	}
	return report(os.Stdout, all), nil
}

// command runs name in dir and returns its standard output; a failure
// carries the combined output.
func command(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s %s: %w\n%s%s", name, strings.Join(args, " "), err, out.String(), errOut.String())
	}
	return out.String(), nil
}

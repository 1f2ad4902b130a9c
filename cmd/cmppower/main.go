// Command cmppower regenerates every table and figure of the reproduced
// paper from the command line.
//
// Usage:
//
//	cmppower fig1   [-tech 65|130|both] [-csv] [-points N]
//	cmppower fig2   [-tech 65|130|both] [-csv] [-chart]
//	cmppower fig3   [-apps list] [-scale S] [-csv] [-faults SPEC] [-timeout D] [-dtm] [-retries N] [-j N] [-scenario FILE]
//	cmppower fig4   [-apps list] [-scale S] [-csv] [-chart] [-faults SPEC] [-timeout D] [-dtm] [-retries N] [-j N] [-scenario FILE]
//	cmppower table1
//	cmppower table2
//	cmppower sweep  [-app NAME] [-scale S]          (raw N×frequency sweep)
//	cmppower ablate [-what leakage|vmin|sysdvfs]
//	cmppower trace  [-app NAME] [-n N] [-dilate D] [-chart]
//	cmppower validate [-apps list] [-scale S]
//	cmppower explore [-apps list] [-scale S] [-j N] [-surrogate] [-scenario FILE]
//	cmppower edp    [-app NAME] [-scale S]
//	cmppower events [-app NAME] [-n N] [-last K] [-jsonl] [-out FILE]
//	cmppower mix    [-apps list] [-freq MHz]
//	cmppower seeds  [-app NAME] [-n N] [-count K]
//	cmppower classify [-n N] [-scale S]
//	cmppower pareto [-tech 65|130] [-serial s] [-comm c] [-chart]
//	cmppower svg    [-app NAME] [-n N] [-out FILE]
//	cmppower all    [-out DIR] [-scale S]
//	cmppower scenario validate|show|digest|diff FILE...
//	cmppower analyze -surrogate [-apps list] [-scale S] [-out FILE]
//	cmppower doctor [-j N]
//	cmppower bench  [-quick] [-out FILE] [-manifests DIR]
//	cmppower serve  [-addr :8080] [-j N] [-queue N] [-cache N] [-memo N] [-timeout D] [-drain D] [-surrogate=false]
//	cmppower router [-addr :8070] [-shards N | -backends URLS] [-j N] [-autoscale] [-chaos SPEC] [-drain D]
//	cmppower loadgen [-url U] [-body JSON] [-duration D] [-c N] [-rate R] [-ramp list] [-vary FIELD] [-json] [-strict]
//	cmppower loadgen -spec FILE | -trace FILE [-url BASE] [-seed N] [-plan] [-achieved-min F] [-json] [-strict]
//
// Sweep-style commands accept -j to bound the work in flight (0 =
// GOMAXPROCS): the simulations of fig3 and fig4, the work items of
// explore and doctor; output is bit-identical for every -j.
//
// fig3, fig4, and explore additionally accept -metrics FILE (Prometheus
// text exposition of the run's counters and histograms) and -manifest
// FILE (deterministic provenance JSON with a digest over the canonical
// half); without either flag no registry is allocated and the run is
// exactly as fast as before.
//
// Global flags, given before the command, profile any invocation:
//
//	cmppower -cpuprofile cpu.prof -memprofile mem.prof fig3 -scale 0.2
//
// See EXPERIMENTS.md for the expected shapes and the paper-vs-measured
// record.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// exitError carries a specific process exit code through the normal error
// return path, so global teardown (profile flushing) still runs; a bare
// os.Exit inside a command would discard an in-flight CPU profile.
type exitError struct {
	code int
	msg  string
}

func (e *exitError) Error() string { return e.msg }

// exitCodeOf extracts a command's requested exit code, if any.
func exitCodeOf(err error) (int, bool) {
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code, true
	}
	return 0, false
}

func main() {
	// Global flags precede the command; flag parsing stops at the first
	// non-flag argument, so command flags are untouched.
	top := flag.NewFlagSet("cmppower", flag.ExitOnError)
	cpuProfile := top.String("cpuprofile", "", "write a CPU profile of the whole command to `file`")
	memProfile := top.String("memprofile", "", "write a heap allocation profile to `file` at exit")
	top.Usage = func() {
		usage()
		os.Exit(2)
	}
	_ = top.Parse(os.Args[1:])
	args := top.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	var cpuOut *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cmppower: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cmppower: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cpuOut = f
	}
	// Commands exit through run so the profiles are flushed before the
	// process terminates (os.Exit skips deferred calls).
	code := run(args[0], args[1:])
	if cpuOut != nil {
		pprof.StopCPUProfile()
		cpuOut.Close()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cmppower: -memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // settle live objects so the profile shows retained heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cmppower: -memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	os.Exit(code)
}

// run dispatches one command and returns the process exit code.
func run(cmd string, args []string) int {
	var err error
	switch cmd {
	case "fig1":
		err = runFig1(args)
	case "fig2":
		err = runFig2(args)
	case "fig3":
		err = runFig3(args)
	case "fig4":
		err = runFig4(args)
	case "table1":
		err = runTable1(args)
	case "table2":
		err = runTable2(args)
	case "sweep":
		err = runSweep(args)
	case "ablate":
		err = runAblate(args)
	case "trace":
		err = runTrace(args)
	case "validate":
		err = runValidate(args)
	case "explore":
		err = runExplore(args)
	case "edp":
		err = runEDP(args)
	case "events":
		err = runEvents(args)
	case "mix":
		err = runMix(args)
	case "seeds":
		err = runSeeds(args)
	case "classify":
		err = runClassify(args)
	case "pareto":
		err = runPareto(args)
	case "svg":
		err = runSVG(args)
	case "all":
		err = runAll(args)
	case "scenario":
		err = runScenario(args)
	case "analyze":
		err = runAnalyze(args)
	case "doctor":
		err = runDoctor(args)
	case "cachesweep":
		err = runCacheSweep(args)
	case "bench":
		err = runBench(args)
	case "serve":
		err = runServe(args)
	case "router":
		err = runRouter(args)
	case "loadgen":
		err = runLoadgen(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cmppower: unknown command %q\n\n", cmd)
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmppower %s: %v\n", cmd, err)
		if code, ok := exitCodeOf(err); ok {
			return code
		}
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprint(os.Stderr, `cmppower — reproduction harness for Li & Martínez, ISPASS 2005

Commands:
  fig1     Normalized power vs parallel efficiency (analytical Scenario I)
  fig2     Speedup under a power budget vs core count (analytical Scenario II)
  fig3     SPLASH-2 Scenario I: efficiency, speedup, power, density, temperature
  fig4     SPLASH-2 Scenario II: nominal vs actual speedup under budget
  table1   The modeled CMP configuration
  table2   The SPLASH-2 application catalog
  sweep    Raw simulator sweep over cores × frequency for one application
  ablate   Sensitivity studies (leakage, Vmin, system-wide DVFS)
  trace    Transient thermal trace of one application run
  validate Cross-validate the analytical model against the simulator
  explore  Iso-area design-space exploration (wide vs narrow cores, L2)
  edp      Energy / EDP / ED²P sweep for one application
  events   Dump the tail of an execution's event trace
  mix      Multiprogrammed throughput study (one job per core)
  seeds    Seed-sensitivity study (reproduction error bars)
  classify CPI-stack workload classification
  pareto   Analytical speedup/power Pareto frontier
  svg      Thermal-map SVG of one run
  all      Regenerate every artifact into a directory
  scenario Chip scenario toolbox: validate, show (summary or canonical
           JSON), digest (sha256 cache identity), and diff scenario
           files — the declarative chip configs (technology node,
           heterogeneous cores, DVFS domains, 3D stacking) accepted by
           fig3/fig4/explore -scenario and the serve "chip" body field
  analyze  Inspect fitted serving artifacts; -surrogate warms the
           per-app surrogate models over the seed grid and reports
           coefficients, confidence regions, and error bounds as
           deterministic JSON (digest pinned by the golden test)
  doctor   End-to-end self-checks (determinism, coherence, calibration,
           analytic Scenario II shape, memory-gap effect, fault
           injection, DTM, cancellation, parallel-sweep determinism,
           batched-engine equivalence, manifest determinism, serve
           round-trip, router fleet, surrogate and scenario IR;
           'go test ./cmd/cmppower' runs the same checks). Exit 1
           when only baseline checks fail, else the first failing
           resilience check's code:
           2=injector, 3=DTM, 4=cancellation, 5=parallel-divergence,
           6=batched-engine-divergence, 7=manifest-divergence,
           8=serve-divergence, 9=router-divergence,
           11=surrogate-divergence, 12=scenario-divergence (10 is
           retired)
  cachesweep  L1 capacity sensitivity across core counts
  bench    Performance benchmarks (engine events/sec, thermal solves/sec,
           end-to-end fig3 time) as BENCH JSON for the regression gate;
           -manifests DIR instead verifies and tabulates run manifests
  serve    Long-running HTTP JSON service (run/sweep/explore endpoints,
           request coalescing, response cache, admission control with 429
           backpressure, /metrics, graceful drain on SIGTERM)
  router   Fleet front tier: routes requests to N serve shards by memo
           affinity (rendezvous hash of the request identity), with
           active health checks, per-shard circuit breakers, hedged
           retries under a global retry budget, an optional autoscaler,
           and chaos injection (-chaos kill-period=5,stall=0.05,...)
  loadgen  Load generator for a running serve or router instance
           (closed-loop -c honoring 429 Retry-After backpressure,
           open-loop -rate on an absolute dispatch schedule, -ramp
           concurrency steps; reports per-class status counts,
           throughput, achieved-vs-target rate, p50/p90/p99/max
           latency). -spec FILE plays a multi-tenant traffic spec
           (named clients with rate fractions, SLO classes, seeded
           arrival processes, request mixes) and -trace FILE replays a
           recorded CSV trace, both deterministically: -plan prints the
           byte-identical schedule report for a given seed

Global flags (before the command):
  -cpuprofile FILE   write a CPU profile of the whole command
  -memprofile FILE   write a heap profile at exit

Run 'cmppower <command> -h' for flags.
`)
}

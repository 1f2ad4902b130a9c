// Command benchmark measures cmppower end to end and layer by layer. It
// drives the library, the HTTP server and the fleet router in-process
// through their public entry points, checks that their outputs are
// correct, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// A plain run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) replays the same inputs through each layer and reports the
// per-layer metrics. See README.md for the workloads, the metrics, and
// the method. From the repository root, run.sh builds and runs it:
//
//	bash benchmark/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of cmppower sees. Every workload reports each
// of them; see README.md for what each one means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer is what a traced run reports. Every workload reports each of
// them. The run layers are measured in every workload. The request layers
// are measured in the serving workloads only, and the counters and ratios
// of a tier a workload does not run (its server, router or sweep) read 0.
var perLayer = []metricDef{
	// Run layers, from replaying the workload's simulated runs.
	{"app.program_s", "s"},
	{"workload.stream_s", "s"},
	{"workload.events_per_s", "1/s"},
	{"cmp.run_s", "s"},
	{"cmp.self_s", "s"},
	{"cmp.events_per_s", "1/s"},
	{"cmp.sampled_run_s", "s"},
	{"power.dynamic_s", "s"},
	{"thermal.coupled_s", "s"},
	{"thermal.fixed_point_iters", "count"},
	{"experiment.run_s", "s"},
	{"experiment.self_s", "s"},
	{"experiment.dtm_s", "s"},
	{"experiment.layer_sum_ratio", "ratio"},
	{"experiment.memo_hit_ratio", "ratio"},
	{"experiment.sweep_parallel_eff", "ratio"},
	// Engine counts from a metrics registry attached to the replayed runs.
	{"cmp.runs", "count"},
	{"cmp.events", "count"},
	{"cache.l1d_accesses", "count"},
	{"cache.l1d_misses", "count"},
	{"cache.l2_accesses", "count"},
	{"cache.l2_fills", "count"},
	{"bus.transactions", "count"},
	{"bus.wait_cycles", "count"},
	{"mem.accesses", "count"},
	{"mem.queue_ns", "count"},
	// Request layers, from replaying the workload's requests.
	{"server.decode_us", "us"},
	{"server.key_us", "us"},
	{"experiment.simulate_us", "us"},
	{"server.encode_us", "us"},
	{"server.handler_us", "us"},
	{"server.self_us", "us"},
	{"server.layer_sum_ratio", "ratio"},
	{"http.transport_us", "us"},
	{"http.loopback_us", "us"},
	{"router.request_us", "us"},
	{"router.self_us", "us"},
	// Counters scraped from /metrics after the workload's serving phases.
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_evictions", "count"},
	{"server.coalesced", "count"},
	{"server.admission_rejected", "count"},
	{"router.hedges", "count"},
	{"router.retries", "count"},
	{"surrogate.hit_ratio", "ratio"},
	// The load generator and the tracing itself.
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.dropped", "count"},
	{"trace.overhead_frac", "frac"},
}

// config is one benchmark run. main fills it from flags; tests shrink the
// phase lengths and problem sizes to get a sub-second smoke run.
type config struct {
	workload string
	seed     uint64
	trace    bool
	// measure is the length of the measured phase (-seconds); see phase.
	measure time.Duration
	// repo is the repository root; scenario files are read from it.
	repo string
	// spanDir, when set, receives the traced run's spans as JSON lines.
	spanDir string

	// campaignScale is the workload scale of every campaign run.
	campaignScale float64
	// serveScale is the scale of every generated request (0 keeps the
	// server's default).
	serveScale float64
	// setups is how many times set-up is repeated for setup_s.
	setups int
	// replayRequests bounds the requests a traced serving run replays.
	replayRequests int
	// hitReps is how often each cache-hit path is timed per request.
	hitReps int
}

func defaultConfig() config {
	return config{
		measure:        25 * time.Second,
		repo:           ".",
		campaignScale:  1.0,
		setups:         25,
		replayRequests: 500,
		hitReps:        3,
	}
}

// value is one reported metric value with its sample count.
type value struct {
	v float64
	n int
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	// problems lists every failed output check; a run with any is not
	// correct.
	problems []string
	metrics  map[string]value
	// notes are informational lines printed before the metrics.
	notes []string
}

func newResult() *result { return &result{metrics: make(map[string]value)} }

func (r *result) set(name string, v float64, n int) { r.metrics[name] = value{v, n} }

// slowdown notes the median of the host slowdowns the end-to-end times
// were scaled by; multiplying by it recovers the times as measured.
func (r *result) slowdown(s []float64) {
	r.notes = append(r.notes, fmt.Sprintf("host slowdown %.3f (median of %d)", percentile(s, 0.5), len(s)))
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, config) (*result, error){
	"campaign":     runCampaign,
	"campaign-dtm": runCampaign,
	"serve-exact":  runServeExact,
	"fleet-hot":    runFleetHot,
}

func main() {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: campaign, campaign-dtm, serve-exact or fleet-hot")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	seconds := fs.Int("seconds", 25, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 replays the inputs layer by layer and reports per-layer metrics")
	fs.StringVar(&cfg.repo, "repo", ".", "repository root")
	fs.StringVar(&cfg.spanDir, "spans", "", "directory for the traced run's span dump (none if empty)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if _, ok := workloads[cfg.workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: need -workload campaign|campaign-dtm|serve-exact|fleet-hot, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	cfg.measure = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1
	os.Exit(run(context.Background(), cfg, os.Stdout))
}

// run executes one workload, prints its report to w and returns the exit
// code: 0 when every output check passed, 1 when one failed (the report
// still prints, with correct=false), 2 when the workload could not run.
func run(ctx context.Context, cfg config, w io.Writer) int {
	res, err := workloads[cfg.workload](ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 2
	}
	if res.failed > 0 {
		res.problem("%d of %d operations failed", res.failed, res.attempted)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := report(w, cfg, defs, res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if len(res.problems) > 0 {
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "benchmark: output check failed: %s\n", p)
		}
		return 1
	}
	return 0
}

// wireMetric is one metric of the JSON report line.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable metric table, then the JSON line.
func report(w io.Writer, cfg config, defs []metricDef, res *result) error {
	mode := "plain"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s, seed %d, %s run, %s measured\n", cfg.workload, cfg.seed, mode, cfg.phase())
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, make(map[string]wireMetric)}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s n=%d\n", d.name, v.v, d.unit, v.n)
		if math.IsNaN(v.v) {
			return fmt.Errorf("workload %s measured no samples for %s", cfg.workload, d.name)
		}
		// JSON has no infinity; a latency that failed reads as the largest
		// float, and the run is not correct anyway.
		out.Metrics[d.name] = wireMetric{math.Max(-math.MaxFloat64, math.Min(v.v, math.MaxFloat64)), d.unit}
	}
	line, err := json.Marshal(&out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// phase is the length of a run's measured phase: -seconds, halved in a
// traced run, which spends the other half replaying its inputs layer by
// layer.
func (cfg config) phase() time.Duration {
	if cfg.trace {
		return cfg.measure / 2
	}
	return cfg.measure
}

// repoFile resolves a repository-relative path against cfg.repo.
func (cfg config) repoFile(rel string) string { return filepath.Join(cfg.repo, rel) }

// measureSetups runs setup n times, releasing every instance but the
// last, which it returns, and sets setup_s: the median set-up time,
// scaled to the reference host by the probes run before and after each.
func measureSetups[T any](hp *hostProbe, res *result, n int, setup func() (T, error), release func(T)) (T, error) {
	var last T
	var times []float64
	before, err := hp.run()
	if err != nil {
		return last, err
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			release(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		last = v
		after, err := hp.run()
		if err != nil {
			release(last)
			return last, err
		}
		times = append(times, d/((before+after)/2))
		before = after
	}
	res.set("setup_s", percentile(times, 0.5), n)
	return last, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans dumps a traced run's spans when a span directory is set.
func writeSpans(cfg config, tr *tracer) error {
	if cfg.spanDir == "" {
		return nil
	}
	return tr.write(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

// Command benchgate compares a fresh `cmppower bench` report against the
// committed baseline (BENCH_10.json) and fails on a real regression.
//
//	go run ./scripts/benchgate BENCH_10.json /tmp/bench.json [tolerance]
//
// Only the speedup ratios are gated — fast path vs reference
// implementation, measured in the same process — because both sides of a
// ratio scale together with the host, while absolute events/sec or
// solves/sec would trip on any hardware change. The default tolerance is
// 20%: a ratio may drift down to 0.8× its committed value before the
// gate fails. Absolute numbers are still printed, benchstat-style, for
// the reader.
//
// Schema 3 (pre-incremental-simulation), 8, 9, and 10 reports are all
// accepted; the sweep cold/warm ratio, the surrogate exact/surrogate
// ratio, and the observed unsampled/sampled ratio are each gated only
// when baseline and current both carry them, so an old baseline still
// gates the engine and thermal ratios.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

type report struct {
	Schema int `json:"schema"`
	Engine struct {
		Events                int64   `json:"events"`
		BatchedEventsPerSec   float64 `json:"batched_events_per_sec"`
		UnbatchedEventsPerSec float64 `json:"unbatched_events_per_sec"`
		Speedup               float64 `json:"speedup"`
	} `json:"engine"`
	Observed struct {
		UnsampledSeconds float64 `json:"unsampled_seconds"`
		SampledSeconds   float64 `json:"sampled_seconds"`
		RelativeSpeed    float64 `json:"relative_speed"`
	} `json:"observed"`
	Thermal struct {
		FactoredSolvesPerSec  float64 `json:"factored_solves_per_sec"`
		ReferenceSolvesPerSec float64 `json:"reference_solves_per_sec"`
		Speedup               float64 `json:"speedup"`
	} `json:"thermal"`
	Fig3 struct {
		Seconds float64 `json:"seconds"`
	} `json:"fig3"`
	Sweep struct {
		ColdSeconds float64 `json:"cold_seconds"`
		WarmSeconds float64 `json:"warm_seconds"`
		Speedup     float64 `json:"speedup"`
	} `json:"sweep"`
	Surrogate struct {
		ExactRPS     float64 `json:"exact_rps"`
		SurrogateRPS float64 `json:"surrogate_rps"`
		Speedup      float64 `json:"speedup"`
	} `json:"surrogate"`
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	switch r.Schema {
	case 3, 8, 9, 10:
	default:
		return r, fmt.Errorf("%s: schema %d, want 3, 8, 9, or 10", path, r.Schema)
	}
	return r, nil
}

func main() {
	if len(os.Args) < 3 || len(os.Args) > 4 {
		fmt.Fprintln(os.Stderr, "usage: benchgate BASELINE.json CURRENT.json [tolerance]")
		os.Exit(2)
	}
	tol := 0.20
	if len(os.Args) == 4 {
		v, err := strconv.ParseFloat(os.Args[3], 64)
		if err != nil || v <= 0 || v >= 1 {
			fmt.Fprintf(os.Stderr, "benchgate: tolerance %q must be in (0,1)\n", os.Args[3])
			os.Exit(2)
		}
		tol = v
	}
	base, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(os.Args[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	row := func(name string, old, new float64) {
		delta := 0.0
		if old != 0 {
			delta = (new - old) / old * 100
		}
		fmt.Printf("%-28s %14.4g %14.4g %+8.1f%%\n", name, old, new, delta)
	}
	fmt.Printf("%-28s %14s %14s %9s\n", "metric", "baseline", "current", "delta")
	row("engine batched ev/s", base.Engine.BatchedEventsPerSec, cur.Engine.BatchedEventsPerSec)
	row("engine unbatched ev/s", base.Engine.UnbatchedEventsPerSec, cur.Engine.UnbatchedEventsPerSec)
	row("engine speedup [gated]", base.Engine.Speedup, cur.Engine.Speedup)
	gateObserved := base.Observed.RelativeSpeed > 0 && cur.Observed.RelativeSpeed > 0
	if cur.Observed.RelativeSpeed > 0 {
		row("observed unsampled seconds", base.Observed.UnsampledSeconds, cur.Observed.UnsampledSeconds)
		row("observed sampled seconds", base.Observed.SampledSeconds, cur.Observed.SampledSeconds)
		name := "observed relative speed"
		if gateObserved {
			name += " [gated]"
		}
		row(name, base.Observed.RelativeSpeed, cur.Observed.RelativeSpeed)
	}
	row("thermal factored solves/s", base.Thermal.FactoredSolvesPerSec, cur.Thermal.FactoredSolvesPerSec)
	row("thermal reference solves/s", base.Thermal.ReferenceSolvesPerSec, cur.Thermal.ReferenceSolvesPerSec)
	row("thermal speedup [gated]", base.Thermal.Speedup, cur.Thermal.Speedup)
	row("fig3 seconds", base.Fig3.Seconds, cur.Fig3.Seconds)
	gateSweep := base.Sweep.Speedup > 0 && cur.Sweep.Speedup > 0
	if cur.Sweep.Speedup > 0 {
		row("sweep cold seconds", base.Sweep.ColdSeconds, cur.Sweep.ColdSeconds)
		row("sweep warm seconds", base.Sweep.WarmSeconds, cur.Sweep.WarmSeconds)
		name := "sweep speedup"
		if gateSweep {
			name += " [gated]"
		}
		row(name, base.Sweep.Speedup, cur.Sweep.Speedup)
	}
	gateSurrogate := base.Surrogate.Speedup > 0 && cur.Surrogate.Speedup > 0
	if cur.Surrogate.Speedup > 0 {
		row("surrogate exact rps", base.Surrogate.ExactRPS, cur.Surrogate.ExactRPS)
		row("surrogate rps", base.Surrogate.SurrogateRPS, cur.Surrogate.SurrogateRPS)
		name := "surrogate speedup"
		if gateSurrogate {
			name += " [gated]"
		}
		row(name, base.Surrogate.Speedup, cur.Surrogate.Speedup)
	}

	fail := false
	gate := func(name string, old, new float64) {
		if new < old*(1-tol) {
			fmt.Printf("FAIL %s regressed: %.3g -> %.3g (more than %.0f%% below baseline)\n",
				name, old, new, tol*100)
			fail = true
		}
	}
	gate("engine speedup", base.Engine.Speedup, cur.Engine.Speedup)
	if gateObserved {
		gate("observed relative speed", base.Observed.RelativeSpeed, cur.Observed.RelativeSpeed)
	}
	gate("thermal speedup", base.Thermal.Speedup, cur.Thermal.Speedup)
	if gateSweep {
		gate("sweep speedup", base.Sweep.Speedup, cur.Sweep.Speedup)
	}
	if gateSurrogate {
		gate("surrogate speedup", base.Surrogate.Speedup, cur.Surrogate.Speedup)
	}
	if fail {
		os.Exit(1)
	}
	fmt.Printf("benchgate: ratios within %.0f%% of baseline\n", tol*100)
}

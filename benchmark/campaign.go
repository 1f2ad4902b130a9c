package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"cmppower"
	"cmppower/internal/identity"
)

// fig4Apps are the applications of the paper's Fig. 4 (Scenario II); Fig. 3
// (Scenario I) runs all twelve.
var fig4Apps = []string{"Cholesky", "FMM", "Radix"}

// coreCounts is the paper's core-count axis.
var coreCounts = []int{1, 2, 4, 8, 16}

// biglittleScenario is the chip campaign-dtm runs on.
const biglittleScenario = "examples/scenarios/biglittle.json"

// rigSeed maps the benchmark seed to the workload seed of every run (the
// servers treat seed 0 as "default", so it is never used).
func rigSeed(seed uint64) uint64 {
	if seed+1 == 0 {
		return 1
	}
	return seed + 1
}

// campaignSetup returns the set-up step of a campaign workload: build
// and calibrate the apparatus, from the big/little scenario file with DTM
// on for campaign-dtm.
func campaignSetup(cfg config) func() (*cmppower.Experiment, error) {
	seed := rigSeed(cfg.seed)
	return func() (*cmppower.Experiment, error) {
		var rig *cmppower.Experiment
		var err error
		if cfg.workload == "campaign-dtm" {
			var sc *cmppower.ChipScenario
			if sc, err = cmppower.LoadScenario(cfg.repoFile(biglittleScenario)); err != nil {
				return nil, err
			}
			if rig, err = cmppower.NewExperimentFromScenario(sc, cfg.campaignScale); err != nil {
				return nil, err
			}
			d := cmppower.DefaultDTMConfig()
			rig.DTM = &d
		} else if rig, err = cmppower.NewExperiment(cfg.campaignScale); err != nil {
			return nil, err
		}
		rig.Seed = seed
		return rig, nil
	}
}

// campaignOut is one campaign's outcomes; its JSON form is what the
// repetition digest covers.
type campaignOut struct {
	Fig3 []cmppower.SweepOutcome `json:"fig3"`
	Fig4 []cmppower.SweepOutcome `json:"fig4"`
	// busy is the sweep pools' summed busy time, read from the rig's
	// metrics registry (0 without one).
	busy float64
}

// campaign runs the paper's full Fig. 3 and Fig. 4 reproduction on rig
// with two sweep workers and the library defaults otherwise.
func campaign(ctx context.Context, rig *cmppower.Experiment) (*campaignOut, error) {
	fig4, err := appsByName(fig4Apps)
	if err != nil {
		return nil, err
	}
	sweep := cmppower.SweepConfig{Workers: 2}
	out := &campaignOut{}
	if out.Fig3, err = rig.SweepScenarioIWith(ctx, cmppower.Apps(), coreCounts, sweep); err != nil {
		return nil, err
	}
	out.busy += rig.Obs.Gauge("sweep_pool_busy_seconds").Value()
	if out.Fig4, err = rig.SweepScenarioIIWith(ctx, fig4, coreCounts, sweep); err != nil {
		return nil, err
	}
	out.busy += rig.Obs.Gauge("sweep_pool_busy_seconds").Value()
	for _, o := range append(out.Fig3, out.Fig4...) {
		if o.Err != nil {
			return out, fmt.Errorf("%s: %w", o.App, o.Err)
		}
	}
	return out, nil
}

func appsByName(names []string) ([]cmppower.App, error) {
	apps := make([]cmppower.App, len(names))
	for i, name := range names {
		a, err := cmppower.AppByName(name)
		if err != nil {
			return nil, err
		}
		apps[i] = a
	}
	return apps, nil
}

// digest is the sha256 of the outcomes' JSON form.
func (c *campaignOut) digest() (string, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(b)), nil
}

// runs lists every distinct measurement the campaign returned: each
// application's baseline plus each row's measurement, with the values the
// campaign reported for it.
func (c *campaignOut) runs(rig *cmppower.Experiment) ([]runSpec, error) {
	var runs []runSpec
	seen := make(map[string]bool)
	add := func(name string, n int, p cmppower.OperatingPoint, seconds, powerW float64) error {
		key := fmt.Sprintf("%s/%d/%v/%v", name, n, p.Freq, p.Volt)
		if seen[key] {
			return nil
		}
		seen[key] = true
		app, err := cmppower.AppByName(name)
		if err != nil {
			return err
		}
		runs = append(runs, runSpec{app: app, n: n, point: p, seed: rig.Seed, wantSeconds: seconds, wantPowerW: powerW})
		return nil
	}
	for _, o := range c.Fig3 {
		b := o.I.Baseline
		if err := add(b.App, b.N, b.Point, b.Seconds, b.PowerW); err != nil {
			return nil, err
		}
		for _, row := range o.I.Rows {
			m := row.Scaled
			if err := add(m.App, m.N, m.Point, m.Seconds, m.PowerW); err != nil {
				return nil, err
			}
		}
	}
	for _, o := range c.Fig4 {
		// The Fig. 4 baseline is the single-core nominal run; only its time
		// is reported.
		if err := add(o.App, 1, rig.Table.Nominal(), o.II.BaselineSeconds, 0); err != nil {
			return nil, err
		}
		for _, row := range o.II.Rows {
			if err := add(o.App, row.N, row.Point, row.Seconds, row.PowerW); err != nil {
				return nil, err
			}
		}
	}
	return runs, nil
}

// runCampaign drives campaign and campaign-dtm: a closed loop with one
// caller that builds a fresh rig and runs a full campaign, repeated until
// the measured phase is over, after one untimed warm-up campaign.
func runCampaign(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	hp, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer hp.close()
	build := campaignSetup(cfg)
	rig, err := measureSetups(hp, res, cfg.setups, build, func(*cmppower.Experiment) {})
	if err != nil {
		return nil, err
	}

	warm, err := campaign(ctx, rig)
	if err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	want, err := warm.digest()
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "campaign.digest "+want)
	memo := rig.MemoStats()

	// Timed campaigns. A traced run alternates campaigns with and without
	// a metrics registry attached; the difference is the tracing overhead.
	// Every campaign is scaled to the reference host by the probes run
	// before and after it, once the previous campaign's caches have been
	// collected outside the timed region.
	var plain, traced, lat, gaps, eff []float64
	runtime.GC()
	before, err := hp.run()
	if err != nil {
		return nil, err
	}
	slow := []float64{before}
	start, prevEnd := time.Now(), time.Now()
	minUnits := 1
	if cfg.trace {
		minUnits = 2 // one campaign of each kind
	}
	for i := 0; i < minUnits || time.Since(start) < cfg.phase(); i++ {
		rig, err := build()
		if err != nil {
			return nil, err
		}
		withObs := cfg.trace && i%2 == 1
		if withObs {
			rig.Obs = cmppower.NewMetricsRegistry()
		}
		t0 := time.Now()
		gaps = append(gaps, ms(t0.Sub(prevEnd)))
		out, err := campaign(ctx, rig)
		raw := time.Since(t0).Seconds()
		prevEnd = time.Now()
		runtime.GC()
		after, perr := hp.run()
		if perr != nil {
			return nil, perr
		}
		slow = append(slow, after)
		d := raw / ((before + after) / 2)
		before = after
		res.attempted++
		if err != nil {
			res.failed++
			res.problem("campaign %d: %v", i, err)
			lat = append(lat, math.Inf(1))
			continue
		}
		if got, err := out.digest(); err != nil || got != want {
			res.problem("campaign %d digest %s differs from the warm-up's %s (%v)", i, got, want, err)
		}
		lat = append(lat, d*1000)
		if withObs {
			traced = append(traced, d)
			eff = append(eff, out.busy/(2*raw))
		} else {
			plain = append(plain, d)
		}
	}
	res.set("latency_p50_ms", percentile(lat, 0.5), len(lat))
	// A run times 11 to 28 campaigns, so only 1 to 3 lie above this p90: it
	// is reported because every workload reports every metric, but it is
	// not a resolved tail (see README.md).
	res.set("latency_p90_ms", percentile(lat, 0.9), len(lat))
	var total float64
	for _, v := range plain {
		total += v
	}
	res.set("throughput_per_s", ratio(float64(len(plain)), total), len(plain))
	res.slowdown(slow)

	runs, err := warm.runs(rig)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		// Spot-check a few reported measurements against a direct run on a
		// fresh rig: memo, forking and the sweep must not change results.
		check, err := build()
		if err != nil {
			return nil, err
		}
		for i := 0; i < 3 && len(runs) > 0; i++ {
			r := runs[int(identity.Mix(cfg.seed, uint64(i))%uint64(len(runs)))]
			m, err := check.RunAppSeeded(ctx, r.app, r.n, r.point, r.seed)
			if err != nil {
				return nil, err
			}
			r.check(res, m.Seconds, m.PowerW)
		}
		return res, nil
	}

	res.set("experiment.memo_hit_ratio", ratio(float64(memo.Hits), float64(memo.Hits+memo.Misses)), 1)
	res.set("experiment.sweep_parallel_eff", percentile(eff, 0.5), len(eff))
	res.set("trace.overhead_frac", percentile(traced, 0.5)/percentile(plain, 0.5)-1, len(traced)+len(plain))
	res.set("loadgen.late_p99_ms", percentile(gaps, 0.99), len(gaps))
	// A campaign serves no requests, so the request layers and the serving
	// counters read 0.
	for _, name := range append(requestLayerMetrics, "loadgen.dropped", "server.cache_hit_ratio", "server.cache_evictions",
		"server.coalesced", "server.admission_rejected", "router.hedges", "router.retries", "surrogate.hit_ratio") {
		res.set(name, 0, 0)
	}

	tr := newTracer()
	replayRig, err := build()
	if err != nil {
		return nil, err
	}
	if err := replayRuns(ctx, replayRig, runs, tr, res); err != nil {
		return nil, err
	}
	return res, writeSpans(cfg, tr)
}

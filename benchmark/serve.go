package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"cmppower"
	"cmppower/internal/identity"
	"cmppower/internal/server"
	"cmppower/internal/traffic"
)

//go:embed specs/*.json
var specFS embed.FS

// schedule is a compiled traffic spec as player input.
type schedule struct {
	calls []call
	due   []time.Duration
}

// compileSpec compiles the named spec under specs/ with the given seed and
// horizon (0 keeps the spec's own), at the configured request scale.
//
// Both specs are synthetic. Their mixes, rates, hot-set size and
// surrogate share are chosen inputs, not taken from recorded traffic, so
// the cache-hit and surrogate shares a serving run reports follow from
// them rather than observe a real load.
func compileSpec(cfg config, name string, seed uint64, horizon time.Duration) (*traffic.Schedule, error) {
	b, err := specFS.ReadFile("specs/" + name + ".json")
	if err != nil {
		return nil, err
	}
	spec, err := traffic.ParseSpec(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	if horizon > 0 {
		spec.DurationSec = horizon.Seconds()
	}
	for i := range spec.Clients {
		for j := range spec.Clients[i].Requests {
			spec.Clients[i].Requests[j].Scale = cfg.serveScale
		}
	}
	return traffic.Compile(spec)
}

// serveExactSchedule is the serve-exact spec compiled as is.
func serveExactSchedule(cfg config, seed uint64, horizon time.Duration) (*schedule, error) {
	sched, err := compileSpec(cfg, "serve-exact", seed, horizon)
	if err != nil {
		return nil, err
	}
	s := &schedule{}
	for _, a := range sched.Arrivals {
		s.calls = append(s.calls, call{body: a.Body})
		s.due = append(s.due, time.Duration(a.AtMicros)*time.Microsecond)
	}
	return s, nil
}

// fleetHotSchedule compiles the fleet-hot spec. The traffic language has
// no serving mode, so the benchmark marks the "approx" client's requests
// surrogate-mode, and pins the "hot" client's seed to the run's seed so
// its fixed key set follows -seed.
func fleetHotSchedule(cfg config) (*schedule, error) {
	sched, err := compileSpec(cfg, "fleet-hot", cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	s := &schedule{}
	for _, a := range sched.Arrivals {
		var req server.RunRequest
		if err := json.Unmarshal(a.Body, &req); err != nil {
			return nil, err
		}
		surrogate := a.Client == "approx"
		if surrogate {
			req.Mode = server.ModeSurrogate
		} else {
			req.Seed = rigSeed(cfg.seed)
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		s.calls = append(s.calls, call{body: body, surrogate: surrogate})
		s.due = append(s.due, time.Duration(a.AtMicros)*time.Microsecond)
	}
	return s, nil
}

// probeBody is the request a set-up waits on: the server is ready once
// it has answered a run. Its application is outside surrogateApps: every
// simulated run trains its application's fit, and one more seed in a fit
// can push its error bound past what the fit may serve.
func probeBody(cfg config) []byte {
	b, _ := json.Marshal(&server.RunRequest{App: "Radix", N: 1, Scale: cfg.serveScale})
	return b
}

// surrogateApps × coreCounts × surrogateFreqs is the grid the fleet-hot
// surrogate fits are trained on, and the grid its surrogate requests
// draw from (specs/fleet-hot.json). The hot exact key set uses other
// applications, so caching it never adds samples to these fits.
var (
	surrogateApps  = []string{"FFT", "LU"}
	surrogateFreqs = []float64{3200, 2400, 1760}
)

// trainingSeeds are the workload seeds the fits are trained on. They are
// fixed rather than drawn from -seed: whether a fit's error bound lets it
// serve depends on its training seeds, and with these both fits serve at
// every grid point. Fits pool seeds, so they answer any request seed.
var trainingSeeds = []uint64{2, 3}

// trainSurrogate trains url's surrogate fits with exact runs over the
// grid and the training seeds.
func trainSurrogate(ctx context.Context, c *http.Client, cfg config, url string) error {
	for _, app := range surrogateApps {
		for _, n := range coreCounts {
			for _, mhz := range surrogateFreqs {
				for _, seed := range trainingSeeds {
					b, _ := json.Marshal(&server.RunRequest{App: app, N: n, Scale: cfg.serveScale, Seed: seed, FreqMHz: mhz})
					if _, err := postOK(ctx, c, url+"/v1/run", b); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// checkFits checks that url's fits answer a surrogate request for each
// surrogate application.
func checkFits(ctx context.Context, c *http.Client, cfg config, url string) error {
	for _, app := range surrogateApps {
		b, _ := json.Marshal(&server.RunRequest{App: app, N: 4, Scale: cfg.serveScale, Seed: 1, FreqMHz: 2400, Mode: server.ModeSurrogate})
		body, err := postOK(ctx, c, url+"/v1/run", b)
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(body, []byte(`{"source":"surrogate"`)) {
			return fmt.Errorf("%s surrogate fit at %s does not serve: %s", app, url, body)
		}
	}
	return nil
}

// runServeExact drives serve-exact: one server with two workers, warmed
// up, then measured closed loop with two callers. Every request carries a
// fresh seed. A traced run then also plays the spec open loop at its
// Poisson rate, for the generator's lateness and open-loop latency.
func runServeExact(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	c := newClient()
	hp, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer hp.close()
	ready := probeBody(cfg)
	srv, err := measureSetups(hp, res, cfg.setups, func() (*liveServer, error) {
		s, err := startServer(server.Config{Workers: connections})
		if err != nil {
			return nil, err
		}
		if _, err := postOK(ctx, c, s.url+"/v1/run", ready); err != nil {
			s.stop()
			return nil, err
		}
		return s, nil
	}, func(s *liveServer) { s.stop() })
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	// The closed loop draws from the spec compiled with a horizon long
	// enough that it never wraps: its timestamps are ignored.
	warmDur := cfg.measure / 10
	loop, err := serveExactSchedule(cfg, cfg.seed, 10*(warmDur+cfg.measure))
	if err != nil {
		return nil, err
	}
	url := srv.url + "/v1/run"
	chk := newResponseCheck(50, 60)
	next := cycler(len(loop.calls))
	warm := playClosed(ctx, c, url, loop.calls, next, warmDur, 0, chk.see(loop.calls))
	if _, failed, _ := tally(warm.samples); failed > 0 {
		res.problem("%d warm-up requests failed", failed)
	}
	closed, err := closedPhase(ctx, c, url, loop.calls, next, cfg.phase(), traceEvery(cfg), chk.see(loop.calls), hp)
	if err != nil {
		return nil, err
	}
	setClosedLoop(res, closed)
	if !cfg.trace {
		return res, chk.verify(ctx, res)
	}

	open, err := serveExactSchedule(cfg, identity.Mix(cfg.seed, 1), cfg.measure/4)
	if err != nil {
		return nil, err
	}
	openWs, err := openPhase(ctx, c, url, open, cfg.measure/4, chk, hp)
	if err != nil {
		return nil, err
	}
	if err := chk.verify(ctx, res); err != nil {
		return nil, err
	}
	played := samplesOf(openWs)
	late, failed, dropped := tally(played)
	res.attempted += len(played)
	res.failed += failed
	s := summarize(openWs)
	res.notes = append(res.notes, fmt.Sprintf("open loop at the spec's rate: p50 %.3f ms, p99 %.3f ms (n=%d, scaled)", s.p50, s.p99, len(played)))
	res.set("loadgen.late_p99_ms", percentile(late, 0.99), len(late))
	res.set("loadgen.dropped", float64(dropped), len(played))
	res.set("trace.overhead_frac", tracingOverhead(closed.samples), len(closed.samples))
	res.set("experiment.sweep_parallel_eff", 0, 0)
	res.set("surrogate.hit_ratio", 0, 0)
	if err := setScraped(ctx, c, res, "", srv.url); err != nil {
		return nil, err
	}
	tr := newTracer()
	tr.spans = append(tr.spans, closed.spans...)
	bodies := replayBodies(cfg, open.calls)
	if err := replayRequestRuns(ctx, cfg, bodies, tr, res); err != nil {
		return nil, err
	}
	if err := replayServing(ctx, cfg, bodies, nil, nil, tr, res); err != nil {
		return nil, err
	}
	return res, writeSpans(cfg, tr)
}

// traceEvery is how often a traced run's closed-loop callers record a
// span: every other request, so that the traced and untraced halves
// compare; never in a plain run.
func traceEvery(cfg config) int {
	if cfg.trace {
		return 2
	}
	return 0
}

// setClosedLoop sets the end-to-end metrics of a closed-loop phase.
func setClosedLoop(res *result, ph *phase) {
	_, failed, _ := tally(ph.samples)
	res.attempted, res.failed = len(ph.samples), failed
	s := summarize(ph.windows)
	res.set("latency_p50_ms", s.p50, len(ph.samples))
	res.set("latency_p90_ms", s.p90, len(ph.samples))
	res.set("throughput_per_s", s.rate, ph.ok)
	var slow []float64
	for _, w := range ph.windows {
		slow = append(slow, w.slowdown)
	}
	res.slowdown(slow)
}

// runFleetHot drives fleet-hot: a router over two single-worker shards,
// surrogate fits trained and the fixed exact key set cached before
// timing, then closed loop with two callers.
func runFleetHot(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	c := newClient()
	hp, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer hp.close()
	ready := probeBody(cfg)
	f, err := measureSetups(hp, res, cfg.setups, func() (*fleet, error) {
		f, err := startFleet(ctx, c)
		if err != nil {
			return nil, err
		}
		for _, u := range f.shardURLs() {
			if _, err := postOK(ctx, c, u+"/v1/run", ready); err != nil {
				f.stop()
				return nil, err
			}
		}
		return f, nil
	}, func(f *fleet) { f.stop() })
	if err != nil {
		return nil, err
	}
	defer f.stop()

	sched, err := fleetHotSchedule(cfg)
	if err != nil {
		return nil, err
	}
	// warm brings serving shards to the fleet's pre-measurement state:
	// surrogate fits trained and serving, and every exact key of the hot
	// set cached, through front.
	warm := func(ctx context.Context, shards []string, front string) error {
		for _, u := range shards {
			if err := trainSurrogate(ctx, c, cfg, u); err != nil {
				return err
			}
		}
		seen := make(map[string]bool)
		for _, cl := range sched.calls {
			if !cl.surrogate && !seen[string(cl.body)] {
				seen[string(cl.body)] = true
				if _, err := postOK(ctx, c, front+"/v1/run", cl.body); err != nil {
					return err
				}
			}
		}
		for _, u := range shards {
			if err := checkFits(ctx, c, cfg, u); err != nil {
				return err
			}
		}
		return nil
	}
	if err := warm(ctx, f.shardURLs(), f.url); err != nil {
		return nil, fmt.Errorf("fleet warm-up: %w", err)
	}
	url := f.url + "/v1/run"
	chk := newResponseCheck(200, 60)
	next := cycler(len(sched.calls))
	warmLoop := playClosed(ctx, c, url, sched.calls, next, cfg.measure/10, 0, chk.see(sched.calls))
	if _, failed, _ := tally(warmLoop.samples); failed > 0 {
		res.problem("%d warm-up requests failed", failed)
	}
	surrogateBefore, hitsBefore := chk.surrogate.Load(), chk.surrogateHits.Load()
	closed, err := closedPhase(ctx, c, url, sched.calls, next, cfg.phase(), traceEvery(cfg), chk.see(sched.calls), hp)
	if err != nil {
		return nil, err
	}
	setClosedLoop(res, closed)
	if err := chk.verify(ctx, res); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return res, nil
	}

	surrogate := chk.surrogate.Load() - surrogateBefore
	res.set("surrogate.hit_ratio", ratio(float64(chk.surrogateHits.Load()-hitsBefore), float64(surrogate)), int(surrogate))
	late, _, _ := tally(closed.samples)
	res.set("loadgen.late_p99_ms", percentile(late, 0.99), len(late))
	res.set("loadgen.dropped", 0, 0)
	res.set("trace.overhead_frac", tracingOverhead(closed.samples), len(closed.samples))
	res.set("experiment.sweep_parallel_eff", 0, 0)
	if err := setScraped(ctx, c, res, f.url, f.shardURLs()...); err != nil {
		return nil, err
	}
	tr := newTracer()
	tr.spans = append(tr.spans, closed.spans...)
	bodies := replayBodies(cfg, sched.calls)
	if err := replayRequestRuns(ctx, cfg, bodies, tr, res); err != nil {
		return nil, err
	}
	warmReplay := func(ctx context.Context, u string) error { return warm(ctx, []string{u}, u) }
	if err := replayServing(ctx, cfg, bodies, f, warmReplay, tr, res); err != nil {
		return nil, err
	}
	return res, writeSpans(cfg, tr)
}

// phase is a closed-loop phase played in windows of about a second.
type phase struct {
	windows []window
	samples []sample
	spans   []span
	ok      int
}

func closedPhase(ctx context.Context, c *http.Client, url string, calls []call, next func() int, d time.Duration, every int, see inspect, hp *hostProbe) (*phase, error) {
	out := &phase{}
	var err error
	out.windows, err = playWindows(hp, d, time.Second, func(_ int, wl time.Duration) []sample {
		cl := playClosed(ctx, c, url, calls, next, wl, every, see)
		out.spans = append(out.spans, cl.spans...)
		out.ok += cl.ok
		return cl.samples
	})
	out.samples = samplesOf(out.windows)
	return out, err
}

// openPhase plays a schedule open loop in windows of about 2.5 s, which
// hold about 1000 arrivals each at 400 rps, so that ten or more lie beyond
// each window's p99. The schedule pauses between windows while the host
// is probed. Requests still unsent half a window (at least a second) after
// a window's last arrival are dropped.
func openPhase(ctx context.Context, c *http.Client, url string, sched *schedule, d time.Duration, chk *responseCheck, hp *hostProbe) ([]window, error) {
	return playWindows(hp, d, 2500*time.Millisecond, func(i int, wl time.Duration) []sample {
		lo, hi := time.Duration(i)*wl, time.Duration(i+1)*wl
		var calls []call
		var due []time.Duration
		for j, at := range sched.due {
			if at >= lo && at < hi {
				calls = append(calls, sched.calls[j])
				due = append(due, at-lo)
			}
		}
		return playOpen(ctx, c, url, calls, due, max(wl/2, time.Second), chk.see(calls))
	})
}

// replayBodies is the head of a schedule a traced run replays.
func replayBodies(cfg config, calls []call) [][]byte {
	bodies := make([][]byte, min(cfg.replayRequests, len(calls)))
	for i := range bodies {
		bodies[i] = calls[i].body
	}
	return bodies
}

// replayRequestRuns replays the simulations behind the exact-mode
// requests among bodies through the run layers.
func replayRequestRuns(ctx context.Context, cfg config, bodies [][]byte, tr *tracer, res *result) error {
	// The request defaults give the scale the servers ran at.
	req := server.RunRequest{Scale: cfg.serveScale}
	req.ApplyDefaults()
	rig, err := cmppower.NewExperiment(req.Scale)
	if err != nil {
		return err
	}
	runs, err := requestRuns(rig, bodies)
	if err != nil {
		return err
	}
	return replayRuns(ctx, rig, runs, tr, res)
}

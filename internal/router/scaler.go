// The autoscaler control loop and the chaos kill/respawn loop — the two
// places fleet membership changes at runtime. Both run on loopCtx and
// are joined by Shutdown before any backend is torn down.
//
// Scaling signals come from the shards themselves: every ScaleInterval
// the loop scrapes each live shard's /metrics for its queue depth gauge
// and its cumulative admission-rejection counter (the source of the
// Retry-After 429s clients see). Queue pressure or fresh rejections
// grow the fleet; ScaleDownIdleTicks consecutive quiet ticks shrink it
// with a graceful drain — the victim is first removed from the ring,
// then waited on until its last in-flight request finishes, then shut
// down. Zero accepted requests are dropped by a scale-down.

package router

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cmppower/internal/obs"
)

// scaleLoop drives the autoscaler until Shutdown.
func (rt *Router) scaleLoop() {
	defer rt.loopWG.Done()
	t := time.NewTicker(rt.cfg.ScaleInterval)
	defer t.Stop()
	idleTicks := 0
	for {
		select {
		case <-rt.loopCtx.Done():
			return
		case <-t.C:
		}
		idleTicks = rt.scaleOnce(idleTicks)
		rt.publishFleetGauges()
	}
}

// scaleOnce runs one control tick and returns the updated idle streak.
func (rt *Router) scaleOnce(idleTicks int) int {
	type scrapeTarget struct {
		s    *shard
		proc Proc
	}
	rt.fleetMu.Lock()
	var targets []scrapeTarget
	live := 0
	for _, s := range rt.slots {
		if s == nil || s.dead {
			continue
		}
		live++
		if s.down || s.draining {
			continue
		}
		targets = append(targets, scrapeTarget{s, s.proc})
	}
	rt.fleetMu.Unlock()
	if len(targets) == 0 {
		return 0
	}

	var queueSum, rejectedDelta float64
	for _, tg := range targets {
		m, ok := rt.scrapeShard(tg.proc)
		if !ok {
			continue
		}
		queueSum += m.queueDepth
		rt.fleetMu.Lock()
		// Counter deltas, not levels: a restarted shard resets to zero, in
		// which case the delta clamps to the new cumulative value.
		d := m.rejected - tg.s.lastRejected
		if d < 0 {
			d = m.rejected
		}
		tg.s.lastRejected = m.rejected
		rt.fleetMu.Unlock()
		rejectedDelta += d
	}
	meanQueue := queueSum / float64(len(targets))

	pressured := meanQueue >= rt.cfg.ScaleUpQueue || rejectedDelta > 0
	switch {
	case pressured && live < rt.cfg.ScaleMax:
		rt.scaleUp()
		return 0
	case pressured:
		return 0
	case queueSum == 0 && rejectedDelta == 0:
		idleTicks++
		if idleTicks >= rt.cfg.ScaleDownIdleTicks && live > rt.cfg.ScaleMin {
			rt.scaleDown()
			return 0
		}
		return idleTicks
	default:
		return 0
	}
}

// scaleUp boots a shard into the first free slot (a dead slot's index is
// reused so rendezvous placement for its keys is restored).
func (rt *Router) scaleUp() {
	rt.fleetMu.Lock()
	slot := -1
	for i, s := range rt.slots {
		if s == nil || s.dead {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = len(rt.slots)
	}
	rt.fleetMu.Unlock()
	if _, err := rt.spawnSlot(slot); err != nil {
		rt.reg.VolatileCounter("router_scale_failures_total").Add(1)
		return
	}
	rt.reg.VolatileCounter("router_scale_up_total").Add(1)
}

// scaleDown drains away the highest-slot active shard: out of the ring
// first, then wait for in-flight zero, then graceful backend shutdown.
func (rt *Router) scaleDown() {
	rt.fleetMu.Lock()
	var victim *shard
	for _, s := range rt.slots {
		if s == nil || s.dead || s.down || s.draining || !s.healthy {
			continue
		}
		if victim == nil || s.slot > victim.slot {
			victim = s
		}
	}
	if victim == nil {
		rt.fleetMu.Unlock()
		return
	}
	victim.draining = true // pick() skips it from this instant on
	proc := victim.proc
	rt.fleetMu.Unlock()

	ctx, cancel := context.WithTimeout(rt.loopCtx, drainTimeout)
	defer cancel()
	if err := victim.waitDrained(ctx); err != nil {
		// Never drop an accepted request: leave the shard draining and let
		// a later tick (or Shutdown) finish the job.
		rt.reg.VolatileCounter("router_scale_failures_total").Add(1)
		return
	}
	if err := proc.Shutdown(ctx); err != nil {
		rt.reg.VolatileCounter("router_scale_failures_total").Add(1)
	}
	rt.fleetMu.Lock()
	victim.draining = false
	victim.dead = true
	rt.fleetMu.Unlock()
	rt.reg.VolatileCounter("router_scale_down_total").Add(1)
}

// shardMetrics is what the scaler reads off one shard's /metrics.
type shardMetrics struct {
	queueDepth float64
	rejected   float64
}

// scrapeShard fetches and parses one shard's metrics exposition.
func (rt *Router) scrapeShard(p Proc) (shardMetrics, bool) {
	ctx, cancel := context.WithTimeout(rt.loopCtx, rt.cfg.HealthInterval)
	defer cancel()
	resp, err := rt.send(ctx, p, http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return shardMetrics{}, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return shardMetrics{}, false
	}
	text := string(body)
	m := shardMetrics{
		queueDepth: parseMetricValue(text, "server_queue_depth"),
		rejected:   parseMetricValue(text, "server_admission_rejected_total"),
	}
	return m, true
}

// parseMetricValue pulls one sample value out of a Prometheus text
// exposition (0 when absent). Label sets on the sample are ignored —
// shard-side metrics are unlabeled.
func parseMetricValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") {
			continue // a longer name with this prefix
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0
		}
		return v
	}
	return 0
}

// chaosLoop kills and respawns shards on the chaos schedule: a fleet
// that claims fault tolerance gets its faults injected for real. Only
// runs in spawn mode (New enforces it) — respawn needs Spawn.
func (rt *Router) chaosLoop() {
	defer rt.loopWG.Done()
	for {
		wait, down, ok := rt.cfg.Chaos.NextKill()
		if !ok {
			return
		}
		select {
		case <-rt.loopCtx.Done():
			return
		case <-time.After(wait):
		}

		// Pick a victim among routable shards, but never the last one: the
		// chaos contract is "the fleet masks a shard loss", which requires
		// a fleet to remain.
		now := time.Now()
		rt.fleetMu.Lock()
		var candidates []*shard
		for _, s := range rt.slots {
			if s != nil && s.routable(now, breakerCooldown) {
				candidates = append(candidates, s)
			}
		}
		if len(candidates) < 2 {
			rt.fleetMu.Unlock()
			continue
		}
		victim := candidates[rt.cfg.Chaos.KillTarget(len(candidates))]
		victim.down = true
		victim.healthy = false
		victim.consecOK = 0
		proc := victim.proc
		rt.fleetMu.Unlock()

		rt.reg.VolatileCounter(obs.WithShard("router_chaos_kills_total", victim.slot)).Add(1)
		proc.Kill()
		rt.publishFleetGauges()

		select {
		case <-rt.loopCtx.Done():
			return
		case <-time.After(down):
		}

		fresh, err := rt.cfg.Spawn(victim.slot)
		if err != nil {
			// Respawn failed (should not happen on loopback); the slot is
			// lost for this run.
			rt.reg.VolatileCounter("router_chaos_respawn_failures_total").Add(1)
			rt.fleetMu.Lock()
			victim.dead = true
			rt.fleetMu.Unlock()
			continue
		}
		rt.fleetMu.Lock()
		victim.proc = fresh
		victim.down = false
		victim.healthy = true
		victim.consecFail = 0
		victim.consecOK = 0
		victim.br.reset()
		victim.lastRejected = 0
		rt.fleetMu.Unlock()
		rt.reg.VolatileCounter(obs.WithShard("router_chaos_respawns_total", victim.slot)).Add(1)
		rt.publishFleetGauges()
	}
}

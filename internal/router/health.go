// Active health checking: every HealthInterval the router probes each
// live shard's /readyz and runs the eject/readmit streak machine —
// EjectAfter consecutive failures take a shard out of the ring,
// ReadmitAfter consecutive successes put it back. Ejection is the slow
// (seconds-scale) membership signal; the per-shard circuit breaker
// reacts faster but on request traffic only, so a shard that stops
// receiving requests can still be ejected here and readmitted once its
// /readyz recovers.

package router

import (
	"context"
	"net/http"
	"time"

	"cmppower/internal/obs"
)

// healthLoop drives periodic probes until Shutdown cancels loopCtx.
func (rt *Router) healthLoop() {
	defer rt.loopWG.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.loopCtx.Done():
			return
		case <-t.C:
		}
		rt.checkHealthOnce()
		rt.publishFleetGauges()
	}
}

// checkHealthOnce probes every live shard (healthy or ejected — ejected
// shards need probes to earn readmission) and applies the streaks.
// Probes run outside the fleet mutex; only the streak bookkeeping takes
// it.
func (rt *Router) checkHealthOnce() {
	type probe struct {
		s    *shard
		proc Proc
	}
	rt.fleetMu.Lock()
	var probes []probe
	for _, s := range rt.slots {
		if s == nil || s.dead || s.down || s.draining {
			continue
		}
		probes = append(probes, probe{s, s.proc})
	}
	rt.fleetMu.Unlock()

	for _, p := range probes {
		ok := rt.probeReady(p.proc)
		rt.fleetMu.Lock()
		// The shard may have been killed, drained, or respawned while the
		// probe was in flight; a stale verdict must not touch the streaks.
		if p.s.dead || p.s.down || p.s.draining || p.s.proc != p.proc {
			rt.fleetMu.Unlock()
			continue
		}
		if ok {
			p.s.consecOK++
			p.s.consecFail = 0
			if !p.s.healthy && p.s.consecOK >= rt.cfg.ReadmitAfter {
				p.s.healthy = true
				rt.fleetMu.Unlock()
				rt.reg.VolatileCounter(obs.WithShard("router_readmits_total", p.s.slot)).Add(1)
				continue
			}
		} else {
			p.s.consecFail++
			p.s.consecOK = 0
			if p.s.healthy && p.s.consecFail >= rt.cfg.EjectAfter {
				p.s.healthy = false
				rt.fleetMu.Unlock()
				rt.reg.VolatileCounter(obs.WithShard("router_ejects_total", p.s.slot)).Add(1)
				continue
			}
		}
		rt.fleetMu.Unlock()
	}
}

// probeReady is one /readyz round trip: ok means a 200 within one
// health interval.
func (rt *Router) probeReady(p Proc) bool {
	ctx, cancel := context.WithTimeout(rt.loopCtx, rt.cfg.HealthInterval)
	defer cancel()
	resp, err := rt.send(ctx, p, http.MethodGet, "/readyz", nil, nil)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

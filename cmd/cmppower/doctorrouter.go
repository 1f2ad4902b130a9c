package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"cmppower/internal/experiment"
	"cmppower/internal/faults"
	"cmppower/internal/identity"
	"cmppower/internal/router"
	"cmppower/internal/server"
)

// checkRouter is doctor check 13: the fleet front tier must be
// invisible to the science and robust to its own fault model. Four
// phases, one ephemeral fleet each:
//
//  1. Byte identity: router responses equal the direct library marshal
//     at shard counts 1, 2, and 4.
//  2. Kill survival: with chaos killing and respawning shards mid-run,
//     every response is still a 200 with the same bytes.
//  3. Hedging: with one shard's forwards stalled far past the hedge
//     delay, requests keyed to it complete fast via the hedge (bounded
//     tail) with identical bytes.
//  4. Observability: the router /metrics exposition carries the route /
//     hedge / chaos counters the smoke and ops dashboards key on.
func checkRouter() error {
	const scale = 0.05

	// Direct library references, computed once.
	rig, err := experiment.NewRig(scale)
	if err != nil {
		return err
	}
	probes := []routerProbe{{app: "FFT", n: 2}, {app: "LU", n: 4}, {app: "Radix", n: 2}}
	for i := range probes {
		p := &probes[i]
		if p.want, err = libraryRun(rig, p.app, p.n); err != nil {
			return err
		}
		p.body = fmt.Sprintf(`{"app":%q,"n":%d,"scale":%g,"seed":1}`, p.app, p.n, scale)
	}

	if err := checkRouterByteIdentity(probes); err != nil {
		return fmt.Errorf("byte identity: %w", err)
	}
	if err := checkRouterKillSurvival(probes); err != nil {
		return fmt.Errorf("kill survival: %w", err)
	}
	if err := checkRouterHedging(probes[0]); err != nil {
		return fmt.Errorf("hedging: %w", err)
	}
	return nil
}

// routerProbe is one request whose router response must equal the
// direct library marshal.
type routerProbe struct {
	app  string
	n    int
	body string
	want []byte
}

// routerFleetConfig is the shared ephemeral-fleet base: small worker
// pools, fast health ticks.
func routerFleetConfig(shards int) router.Config {
	return router.Config{
		Shards:         shards,
		Spawn:          router.SpawnInProcess(server.Config{Workers: 2}),
		HealthInterval: 20 * time.Millisecond,
		EjectAfter:     2,
		ReadmitAfter:   2,
	}
}

// checkRouterByteIdentity: phase 1.
func checkRouterByteIdentity(probes []routerProbe) error {
	for _, shards := range []int{1, 2, 4} {
		rt, err := router.New(routerFleetConfig(shards))
		if err != nil {
			return err
		}
		err = serveOn(rt, func(base string) error {
			for _, p := range probes {
				got, err := doctorFetch(base+"/v1/run", p.body)
				if err != nil {
					return fmt.Errorf("%d shards, %s: %w", shards, p.app, err)
				}
				if !bytes.Equal(got, p.want) {
					return fmt.Errorf("%d shards, %s: body differs from the direct library result", shards, p.app)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkRouterKillSurvival: phase 2 — chaos kills shards mid-run; every
// response must still be a byte-identical 200 (retries mask the loss),
// and at least one kill and one respawn must actually have happened.
func checkRouterKillSurvival(probes []routerProbe) error {
	chaos, err := faults.ParseChaosSpec("kill-period=0.25,kill-down=0.2,seed=7", 7)
	if err != nil {
		return err
	}
	cfg := routerFleetConfig(3)
	cfg.Chaos = chaos
	rt, err := router.New(cfg)
	if err != nil {
		return err
	}
	return serveOn(rt, func(base string) error {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			for _, p := range probes {
				got, err := doctorFetch(base+"/v1/run", p.body)
				if err != nil {
					return fmt.Errorf("%s during kills: %w", p.app, err)
				}
				if !bytes.Equal(got, p.want) {
					return fmt.Errorf("%s during kills: body differs from the direct library result", p.app)
				}
			}
		}
		text, err := doctorFetch(base+"/metrics", "")
		if err != nil {
			return err
		}
		if metricFamilyTotal(text, "router_chaos_kills_total") < 1 {
			return fmt.Errorf("chaos ran 2s with kill-period=0.25 but killed nothing")
		}
		if metricFamilyTotal(text, "router_chaos_respawns_total") < 1 {
			return fmt.Errorf("shards were killed but never respawned")
		}
		return nil
	})
}

// checkRouterHedging: phase 3 — the shard owning the probe's key stalls
// every forward for 20s; the hedge must answer from the other shard
// well under the stall, with identical bytes, and the hedge counters
// must show it.
func checkRouterHedging(p routerProbe) error {
	// Aim the stall at the rendezvous owner of this exact request.
	req := server.RunRequest{App: p.app, N: p.n, Scale: 0.05, Seed: 1}
	req.ApplyDefaults()
	h := identity.Hash(identity.Key("/v1/run", &req))
	primary := 0
	if identity.Mix(h, 1) > identity.Mix(h, 0) {
		primary = 1
	}
	chaos, err := faults.ParseChaosSpec(fmt.Sprintf("stall=1,stall-ms=20000,stall-slot=%d", primary), 1)
	if err != nil {
		return err
	}
	cfg := routerFleetConfig(2)
	cfg.Chaos = chaos
	cfg.HedgeMin = 25 * time.Millisecond
	cfg.HedgeMax = 100 * time.Millisecond
	rt, err := router.New(cfg)
	if err != nil {
		return err
	}
	return serveOn(rt, func(base string) error {
		for i := 0; i < 3; i++ {
			start := time.Now()
			got, err := doctorFetch(base+"/v1/run", p.body)
			elapsed := time.Since(start)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, p.want) {
				return fmt.Errorf("hedged body differs from the direct library result")
			}
			if elapsed > 5*time.Second {
				return fmt.Errorf("request %d took %v under a 20s stall; hedge did not bound the tail", i, elapsed)
			}
		}
		text, err := doctorFetch(base+"/metrics", "")
		if err != nil {
			return err
		}
		for _, family := range []string{"router_requests_total", "router_routes_total",
			"router_hedges_total", "router_hedge_wins_total"} {
			if metricFamilyTotal(text, family) < 1 {
				return fmt.Errorf("/metrics missing activity on %s", family)
			}
		}
		return nil
	})
}

// metricFamilyTotal sums every sample of a metric family in a
// Prometheus text exposition, folding labeled series
// (`family{shard="2"} 3`) into one total.
func metricFamilyTotal(text []byte, family string) float64 {
	var total float64
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if strings.HasPrefix(rest, "{") {
			if i := strings.IndexByte(rest, '}'); i >= 0 {
				rest = rest[i+1:]
			}
		}
		if !strings.HasPrefix(rest, " ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g", &v); err == nil {
			total += v
		}
	}
	return total
}

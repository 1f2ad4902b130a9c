// PlaySchedule: open-loop playback of a compiled traffic schedule
// (internal/traffic) through the load generator's fire path. Every
// arrival is dispatched at its absolute offset from play start — the
// schedule, not a ticker, is the clock — tagged with the traffic
// headers so the server and router can account per SLO class, and the
// result carries per-client and per-class breakdowns next to the
// overall step numbers.

package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cmppower/internal/traffic"
)

// PlaySchedule plays sched open-loop against cfg.URL (the base URL;
// each arrival's endpoint path is appended). Only URL, Timeout, and
// Client are read from cfg. The dispatch clock is absolute — arrival n
// fires at start + sched.Arrivals[n].AtMicros, catching up back to back
// after a stall — and the reported Duration is the dispatch window,
// with the post-schedule drain of in-flight requests kept separate.
func PlaySchedule(ctx context.Context, cfg LoadConfig, sched *traffic.Schedule) (*LoadResult, error) {
	if len(sched.Arrivals) == 0 {
		return nil, fmt.Errorf("loadgen: schedule has no arrivals")
	}
	cfg.Body = nil
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	col := newCollector()
	sem := make(chan struct{}, 4096)
	var wg sync.WaitGroup
	var dropped, dispatched int64
	dispatchedBy := make(map[string]int64)
	start := time.Now()
	for i := range sched.Arrivals {
		a := &sched.Arrivals[i]
		due := start.Add(time.Duration(a.AtMicros) * time.Microsecond)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
		if ctx.Err() != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		default:
			dropped++
			continue
		}
		dispatched++
		dispatchedBy[a.Client]++
		wg.Add(1)
		go func(a *traffic.Arrival) {
			defer wg.Done()
			defer func() { <-sem }()
			fire(ctx, cfg, col, http.MethodPost, cfg.URL+a.Endpoint, a.Body, a.Client, a.Class)
		}(a)
	}
	// The dispatch window closes at the last arrival (or cancellation);
	// in-flight requests then drain under their per-request timeouts.
	window := time.Since(start)
	drainStart := time.Now()
	wg.Wait()
	step := col.result(window)
	step.Drain = time.Since(drainStart)
	step.RateRPS = sched.TargetRPS
	step.Dropped = dropped
	step.Dispatched = dispatched
	if window > 0 {
		step.AchievedRPS = float64(dispatched) / window.Seconds()
	}
	for name, n := range dispatchedBy {
		b := step.Clients[name]
		if b == nil {
			// All of this client's requests failed before recording (or
			// were never recorded); surface the bucket anyway.
			b = &BucketStats{}
			if step.Clients == nil {
				step.Clients = make(map[string]*BucketStats)
			}
			step.Clients[name] = b
		}
		b.TargetRPS = sched.Targets[name]
		if window > 0 {
			b.AchievedRPS = float64(n) / window.Seconds()
		}
	}
	// Roll client targets up to their classes (a client's class is read
	// off its arrivals) so the per-class rows carry targets too.
	classOf := make(map[string]string)
	for i := range sched.Arrivals {
		a := &sched.Arrivals[i]
		if _, ok := classOf[a.Client]; !ok {
			classOf[a.Client] = a.Class
		}
	}
	for client, target := range sched.Targets {
		if b := step.Classes[classOf[client]]; b != nil {
			b.TargetRPS += target
		}
	}
	for class, b := range step.Classes {
		var n int64
		for client, cnt := range dispatchedBy {
			if classOf[client] == class {
				n += cnt
			}
		}
		if window > 0 {
			b.AchievedRPS = float64(n) / window.Seconds()
		}
	}
	out := &LoadResult{Steps: []StepResult{step}}
	return out, ctx.Err()
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// connections bounds the benchmark's load: at most this many client
// connections, open-loop senders or closed-loop callers, sized for a
// 2-core host so the generator never outnumbers the serving workers.
const connections = 2

// newClient returns an HTTP client that never opens more than
// connections connections to one host.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
			DisableCompression:  true,
		},
	}
}

// post sends one JSON body and returns the status and the response body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// postOK is post that treats anything but 200 as an error.
func postOK(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	status, b, err := post(ctx, c, url, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", url, status, bytes.TrimSpace(b))
	}
	return b, nil
}

// call is one request a player sends.
type call struct {
	body []byte
	// surrogate marks a surrogate-mode request.
	surrogate bool
}

// sample is one played request.
type sample struct {
	// lat is the latency in ms — from the due time in an open loop, from
	// the send in a closed loop — and +Inf when the request failed, was
	// refused, or was never sent.
	lat float64
	// late is how long after it could the generator sent the request, in
	// ms: after the due time in an open loop, after the caller's previous
	// response in a closed loop.
	late float64
	// traced marks a closed-loop request whose span was recorded.
	traced bool
	sent   bool
}

// inspect sees every successful response body (the player does not keep
// them); it must be safe for concurrent use.
type inspect func(i int, body []byte)

// playOpen plays calls open loop: call i is due at start+due[i] whether or
// not earlier calls have finished, and at most connections requests are
// in flight, so a backlog queues in the generator and shows as latency.
// Calls still unsent grace after the last due time are dropped.
func playOpen(ctx context.Context, c *http.Client, url string, calls []call, due []time.Duration, grace time.Duration, see inspect) []sample {
	out := make([]sample, len(calls))
	for i := range out {
		out[i].lat = math.Inf(1)
	}
	if len(calls) == 0 {
		return out
	}
	start := time.Now()
	ctx, cancel := context.WithDeadline(ctx, start.Add(due[len(due)-1]+grace))
	defer cancel()
	queue := make(chan int, len(calls)) // one slot per call: dispatch never blocks
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if ctx.Err() != nil {
					continue // dropped
				}
				out[i].sent = true
				status, body, err := post(ctx, c, url, calls[i].body)
				if err == nil && status == http.StatusOK {
					out[i].lat = ms(time.Since(start) - due[i])
					see(i, body)
				}
			}
		}()
	}
	for i := range calls {
		if d := due[i] - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		out[i].late = ms(time.Since(start) - due[i])
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop is the result of playClosed.
type closedLoop struct {
	samples []sample
	// spans are the client-side spans of the traced requests.
	spans []span
	ok    int
}

// playClosed runs connections callers for d; each sends its next call as
// soon as the previous one answered. next hands out call indices. With
// traceEvery > 0, every traceEvery-th request of a caller records a span,
// which is all the client-side tracing there is.
func playClosed(ctx context.Context, c *http.Client, url string, calls []call, next func() int, d time.Duration, traceEvery int, see inspect) closedLoop {
	start := time.Now()
	var out closedLoop
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var spans []span
			ok := 0
			prev := start
			for n := 0; time.Since(start) < d && ctx.Err() == nil; n++ {
				i := next()
				t0 := time.Now()
				s := sample{lat: math.Inf(1), late: ms(t0.Sub(prev)), sent: true}
				status, body, err := post(ctx, c, url, calls[i].body)
				prev = time.Now()
				if err == nil && status == http.StatusOK {
					s.lat = ms(prev.Sub(t0))
					ok++
					see(i, body)
				}
				if traceEvery > 0 && n%traceEvery == 0 {
					s.traced = true
					spans = append(spans, span{Name: "client.request", Unit: i,
						Start: t0.Sub(start).Nanoseconds(), Dur: prev.Sub(t0).Nanoseconds()})
				}
				mine = append(mine, s)
			}
			mu.Lock()
			defer mu.Unlock()
			out.samples = append(out.samples, mine...)
			out.spans = append(out.spans, spans...)
			out.ok += ok
		}()
	}
	wg.Wait()
	return out
}

// cycler hands out indices 0..n-1 in order, wrapping around.
func cycler(n int) func() int {
	var k atomic.Int64
	return func() int { return int((k.Add(1) - 1) % int64(n)) }
}

// window is one window of a phase: its samples, its length, and the
// host's slowdown around it (the mean of the probes before and after).
type window struct {
	samples  []sample
	length   time.Duration
	slowdown float64
}

// playWindows plays a phase of length d as windows of about length w,
// probing the host before the first window and after every window. play
// plays window i, of length wl, and returns its samples.
func playWindows(hp *hostProbe, d, w time.Duration, play func(i int, wl time.Duration) []sample) ([]window, error) {
	k := int(math.Max(1, math.Round(float64(d)/float64(w))))
	wl := d / time.Duration(k)
	before, err := hp.run()
	if err != nil {
		return nil, err
	}
	out := make([]window, k)
	for i := range out {
		out[i] = window{samples: play(i, wl), length: wl}
		after, err := hp.run()
		if err != nil {
			return nil, err
		}
		out[i].slowdown, before = (before+after)/2, after
	}
	return out, nil
}

// summary is a phase reduced to the medians over its windows of each
// window's latency percentiles and its rate of successful requests per
// second, each scaled to the reference host by the window's slowdown.
// Medians over windows keep a burst of interference from moving a whole
// run; the scaling keeps the host's slower drift from moving it.
type summary struct {
	p50, p90, p99, rate float64
}

func summarize(ws []window) summary {
	var p50s, p90s, p99s, rates []float64
	for _, w := range ws {
		if len(w.samples) == 0 {
			continue
		}
		lat := make([]float64, len(w.samples))
		ok := 0.0
		for i, s := range w.samples {
			lat[i] = s.lat
			if !math.IsInf(s.lat, 1) {
				ok++
			}
		}
		p50s = append(p50s, percentile(lat, 0.5)/w.slowdown)
		p90s = append(p90s, percentile(lat, 0.9)/w.slowdown)
		p99s = append(p99s, percentile(lat, 0.99)/w.slowdown)
		rates = append(rates, ok/w.length.Seconds()*w.slowdown)
	}
	return summary{percentile(p50s, 0.5), percentile(p90s, 0.5), percentile(p99s, 0.5), percentile(rates, 0.5)}
}

// samplesOf concatenates the windows' samples.
func samplesOf(ws []window) []sample {
	var all []sample
	for _, w := range ws {
		all = append(all, w.samples...)
	}
	return all
}

// tally extracts the generator lateness of each sent sample and
// counts the failed and the never-sent ones.
func tally(ss []sample) (late []float64, failed, dropped int) {
	for _, s := range ss {
		if s.sent {
			late = append(late, s.late)
		} else {
			dropped++
		}
		if math.IsInf(s.lat, 1) {
			failed++
		}
	}
	return late, failed, dropped
}

// tracingOverhead is the mean latency of the traced closed-loop requests
// over that of the untraced ones, minus 1.
func tracingOverhead(ss []sample) float64 {
	var traced, plain []float64
	for _, s := range ss {
		if math.IsInf(s.lat, 1) {
			continue
		}
		if s.traced {
			traced = append(traced, s.lat)
		} else {
			plain = append(plain, s.lat)
		}
	}
	return ratio(mean(traced), mean(plain)) - 1
}

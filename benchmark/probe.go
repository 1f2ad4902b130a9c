package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// The probe's two parts took these times, in seconds, on the host the
// benchmark was defined on (a 2-vCPU VM, medians of 300 probes).
const (
	probeMemRef  = 0.011
	probeHTTPRef = 0.0038
)

// hostProbe times fixed work that depends on nothing in cmppower, to
// measure how fast the host runs right now. The host this benchmark was
// defined on drifts by 15% and more over tens of seconds, invisibly to
// steal accounting, which would otherwise move every end-to-end metric by
// as much between runs. Workloads run the probe between their timed
// units and scale each unit to the reference host's speed.
//
// The probe has the shape of the work being timed: random updates to a
// 4 MiB table from each of two goroutines, like the simulator's cache
// and stream state, then sequential HTTP round trips over loopback, like
// the serving path. Its slowdown is the geometric mean of the two parts'
// slowdowns against the reference host.
type hostProbe struct {
	tables [2][]uint64
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	body   []byte
}

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reply := make([]byte, 1024)
	p := &hostProbe{
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) //nolint:errcheck // the reply does not depend on the body
			w.Write(reply)              //nolint:errcheck // a failed write fails the client's read
		})},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		body:   make([]byte, 128),
	}
	for i := range p.tables {
		p.tables[i] = make([]uint64, 1<<19)
	}
	go func() { p.served <- p.srv.Serve(ln) }()
	return p, nil
}

// close stops the probe's server and waits for it.
func (p *hostProbe) close() {
	p.client.CloseIdleConnections()
	p.srv.Close()
	<-p.served
}

// run probes the host once and returns its slowdown against the
// reference host: 1 at the reference speed, 2 when it runs half as fast.
func (p *hostProbe) run() (float64, error) {
	start := time.Now()
	var wg sync.WaitGroup
	for g := range p.tables {
		wg.Add(1)
		go func(t []uint64, x uint64) {
			defer wg.Done()
			for i := 0; i < 1_500_000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				j := (x >> 40) & uint64(len(t)-1)
				t[j] += x ^ (t[j] >> 3)
			}
		}(p.tables[g], uint64(g)+1)
	}
	wg.Wait()
	mem := time.Since(start).Seconds()

	start = time.Now()
	for i := 0; i < 80; i++ {
		resp, err := p.client.Post(p.url, "application/octet-stream", bytes.NewReader(p.body))
		if err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
	}
	web := time.Since(start).Seconds()
	return math.Sqrt(mem / probeMemRef * web / probeHTTPRef), nil
}

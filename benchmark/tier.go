package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cmppower/internal/identity"
	"cmppower/internal/router"
	"cmppower/internal/server"
)

// liveServer is one in-process server on a loopback listener.
type liveServer struct {
	srv    *server.Server
	url    string
	served chan error
}

func startServer(cfg server.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{srv: server.New(cfg), url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its serve loop to return.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.served; err == nil {
		err = serveErr
	}
	return err
}

// fleet is an in-process router over two in-process shards.
type fleet struct {
	rt     *router.Router
	url    string
	shards []router.ShardInfo
	served chan error
}

func startFleet(ctx context.Context, c *http.Client) (*fleet, error) {
	rt, err := router.New(router.Config{Shards: 2, Spawn: router.SpawnInProcess(server.Config{Workers: 1})})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = rt.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	f := &fleet{rt: rt, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { f.served <- rt.Serve(ln) }()
	var info router.FleetInfo
	if err := getJSON(ctx, c, f.url+"/fleet", &info); err != nil {
		f.stop()
		return nil, err
	}
	f.shards = info.Shards
	return f, nil
}

// stop drains the router, then its shards, and waits for the serve loop.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.rt.Shutdown(ctx)
	if serveErr := <-f.served; err == nil {
		err = serveErr
	}
	return err
}

// owner is the URL of the shard the router sends key to: the rendezvous
// winner over the shard slots, as the router ranks them.
func (f *fleet) owner(key string) string {
	h := identity.Hash(key)
	best, url := uint64(0), ""
	for _, s := range f.shards {
		if score := identity.Mix(h, uint64(s.Slot)); url == "" || score > best {
			best, url = score, s.URL
		}
	}
	return url
}

func (f *fleet) shardURLs() []string {
	urls := make([]string, len(f.shards))
	for i, s := range f.shards {
		urls[i] = s.URL
	}
	return urls
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape sums the unlabeled samples of every server's /metrics.
func scrape(ctx context.Context, c *http.Client, urls ...string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("scrape %s: status %d", u, resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
				continue
			}
			if name, v, ok := strings.Cut(line, " "); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					out[name] += f
				}
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
	}
	return out, nil
}

// setScraped sets the per-layer counters read from the serving tier's
// /metrics after the workload's phases.
func setScraped(ctx context.Context, c *http.Client, res *result, routerURL string, servers ...string) error {
	s, err := scrape(ctx, c, servers...)
	if err != nil {
		return err
	}
	hits, misses := s["server_cache_hits_total"], s["server_cache_misses_total"]
	res.set("server.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	res.set("server.cache_evictions", s["server_cache_evictions_total"], 1)
	res.set("server.coalesced", s["server_coalesced_total"], 1)
	res.set("server.admission_rejected", s["server_admission_rejected_total"], 1)
	mh, mm := s["memo_hits_total"], s["memo_misses_total"]
	res.set("experiment.memo_hit_ratio", ratio(mh, mh+mm), int(mh+mm))
	var r map[string]float64
	if routerURL != "" {
		if r, err = scrape(ctx, c, routerURL); err != nil {
			return err
		}
	}
	res.set("router.hedges", r["router_hedges_total"], 1)
	res.set("router.retries", r["router_retries_total"], 1)
	return nil
}

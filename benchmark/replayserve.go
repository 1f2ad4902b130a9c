package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"

	"cmppower"
	"cmppower/internal/identity"
	"cmppower/internal/server"
)

// requestLayerMetrics are the metrics replayServing sets.
var requestLayerMetrics = []string{
	"server.decode_us", "server.key_us", "experiment.simulate_us", "server.encode_us",
	"server.handler_us", "server.self_us", "server.layer_sum_ratio",
	"http.transport_us", "http.loopback_us", "router.request_us", "router.self_us",
}

// replayServing replays each /v1/run body serially through the serving
// layers and sets the request-layer metrics, as means per request:
//
//	server.handler       Server.Handler().ServeHTTP in-process, as served
//	  server.decode      json.Unmarshal + ApplyDefaults + Validate
//	  server.key         identity.Key
//	  experiment.simulate  Rig.RunAppSeeded, as the server runs it
//	  server.encode      json.Marshal of the response
//	http.loopback_hit    the request again over loopback (a cache hit)
//	  server.handler_hit the request again in-process (a cache hit)
//	router.request       the request through the fleet router, as served
//	router.request_hit   the request again through the router (a cache hit)
//	  router.direct_hit  the request again straight to its shard
//
// simulate and encode are children of the handler only when the handler
// computed the answer; a cached or surrogate answer skips them, and the
// handler's self time is then the cache, flight and admission path. The
// transport and router costs are measured on cache hits, where nothing
// else varies between the two calls compared.
//
// The handler and loopback calls go to a fresh replay server; warm, when
// set, first brings it to the state of the workload's servers. live is
// the workload's fleet; without one a fresh fleet is started. A handler
// answer that differs from the library's fails the run.
func replayServing(ctx context.Context, cfg config, bodies [][]byte, live *fleet, warm func(context.Context, string) error, tr *tracer, res *result) error {
	c := newClient()
	reg := cmppower.NewMetricsRegistry()
	computations := reg.Counter("server_computations_total")
	a, err := startServer(server.Config{Workers: 1, Registry: reg})
	if err != nil {
		return err
	}
	defer a.stop()
	f := live
	if f == nil {
		if f, err = startFleet(ctx, c); err != nil {
			return err
		}
		defer f.stop()
	}
	if warm != nil {
		if err := warm(ctx, a.url); err != nil {
			return fmt.Errorf("warm replay server: %w", err)
		}
	}
	h := a.srv.Handler()
	serve := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		return rec
	}
	rigs := newRigCache()
	for _, body := range bodies {
		u := tr.unit()
		var rec *httptest.ResponseRecorder
		before := computations.Value()
		handlerID, _ := tr.time("server.handler", 0, u, func() error { rec = serve(body); return nil })
		computed := computations.Value() > before
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay %s: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		var req *server.RunRequest
		if _, err := tr.time("server.decode", handlerID, u, func() (err error) {
			req, err = decodeRun(body)
			return err
		}); err != nil {
			return err
		}
		var key string
		tr.time("server.key", handlerID, u, func() error { key = identity.Key("/v1/run", req); return nil })
		parent := 0
		if computed {
			parent = handlerID
		}
		rig, err := rigs.forRequest(req)
		if err != nil {
			return err
		}
		var m *cmppower.Measurement
		if _, err := tr.time("experiment.simulate", parent, u, func() (err error) {
			m, err = simulateRun(ctx, rig, req)
			return err
		}); err != nil {
			return err
		}
		var enc []byte
		if _, err := tr.time("server.encode", parent, u, func() (err error) {
			enc, err = encodeRun(req, m)
			return err
		}); err != nil {
			return err
		}
		fromFit := bytes.HasPrefix(rec.Body.Bytes(), []byte(`{"source":"surrogate"`))
		if !fromFit && !bytes.Equal(enc, rec.Body.Bytes()) {
			res.problem("replayed response to %s differs from the library's", body)
		}

		for k := 0; k < cfg.hitReps; k++ {
			loopID, err := tr.time("http.loopback_hit", 0, u, func() error {
				_, err := postOK(ctx, c, a.url+"/v1/run", body)
				return err
			})
			if err != nil {
				return err
			}
			if _, err := tr.time("server.handler_hit", loopID, u, func() error {
				if rec := serve(body); rec.Code != http.StatusOK {
					return fmt.Errorf("replay %s: status %d", body, rec.Code)
				}
				return nil
			}); err != nil {
				return err
			}
		}
		if _, err := tr.time("router.request", 0, u, func() error {
			_, err := postOK(ctx, c, f.url+"/v1/run", body)
			return err
		}); err != nil {
			return err
		}
		owner := f.owner(key)
		for k := 0; k < cfg.hitReps; k++ {
			viaID, err := tr.time("router.request_hit", 0, u, func() error {
				_, err := postOK(ctx, c, f.url+"/v1/run", body)
				return err
			})
			if err != nil {
				return err
			}
			if _, err := tr.time("router.direct_hit", viaID, u, func() error {
				_, err := postOK(ctx, c, owner+"/v1/run", body)
				return err
			}); err != nil {
				return err
			}
		}
	}

	n := len(bodies)
	hits := float64(n * cfg.hitReps)
	total, self := tr.layerTimes()
	us := func(sec, count float64) float64 { return ratio(sec*1e6, count) }
	for _, l := range []struct{ metric, span string }{
		{"server.decode_us", "server.decode"},
		{"server.key_us", "server.key"},
		{"experiment.simulate_us", "experiment.simulate"},
		{"server.encode_us", "server.encode"},
		{"server.handler_us", "server.handler"},
		{"router.request_us", "router.request"},
	} {
		res.set(l.metric, us(total[l.span], float64(n)), n)
	}
	transport := us(self["http.loopback_hit"], hits)
	res.set("server.self_us", us(self["server.handler"], float64(n)), n)
	res.set("http.transport_us", transport, int(hits))
	res.set("router.self_us", us(self["router.request_hit"], hits), int(hits))
	// The as-served loopback latency is the handler plus the transport.
	layerSum, handler := tr.treeSelf("server.handler")
	loopback := us(handler, float64(n)) + transport
	res.set("http.loopback_us", loopback, n)
	res.set("server.layer_sum_ratio", ratio(us(layerSum, float64(n))+transport, loopback), n)
	return nil
}

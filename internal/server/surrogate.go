package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"cmppower/internal/experiment"
	"cmppower/internal/explore"
	"cmppower/internal/surrogate"
)

// Surrogate-path wire surface (DESIGN.md §14).
const (
	// ModeSurrogate marks a request that allows an approximate answer.
	ModeSurrogate = "surrogate"
	// HeaderApprox is the header form of Mode "surrogate": any value but
	// "0"/"false" opts the request in (folded into the body Mode before
	// normalization, so it shares the cache identity).
	HeaderApprox = "X-Cmppower-Approx"
	// HeaderSource echoes where the answer came from ("surrogate" or
	// "simulation") on surrogate-mode run responses.
	HeaderSource = "X-Cmppower-Source"
	// HeaderBound echoes the advertised maximum relative error on
	// surrogate-served run responses.
	HeaderBound = "X-Cmppower-Bound"
)

// normalizeMode canonicalizes a request Mode: "exact" and "" spell the
// same thing, so exact-mode requests keep the pre-surrogate cache
// identity (and stay byte-identical to the library).
func normalizeMode(mode string) string {
	m := strings.ToLower(strings.TrimSpace(mode))
	if m == "exact" {
		m = ""
	}
	return m
}

// validateMode accepts the two serving modes.
func validateMode(mode string) error {
	if mode != "" && mode != ModeSurrogate {
		return fmt.Errorf("mode %q (want \"exact\" or \"surrogate\")", mode)
	}
	return nil
}

// approxRequested reads the X-Cmppower-Approx opt-in header.
func approxRequested(r *http.Request) bool {
	v := strings.TrimSpace(r.Header.Get(HeaderApprox))
	return v != "" && v != "0" && !strings.EqualFold(v, "false")
}

// SurrogateRunResponse is the body of a surrogate-mode POST /v1/run.
// Exactly one of Prediction/Measurement is set, declared by Source; a
// surrogate answer advertises the fit's error bound (relative, on
// seconds and watts; energy and EDP compound it).
type SurrogateRunResponse struct {
	Source      string                  `json:"source"`
	Bound       float64                 `json:"bound,omitempty"`
	Prediction  *surrogate.Prediction   `json:"prediction,omitempty"`
	Measurement *experiment.Measurement `json:"measurement,omitempty"`
}

// SurrogateExploreResponse is the body of a surrogate-mode POST
// /v1/explore: the full cell grid with per-cell provenance, plus the
// prune accounting.
type SurrogateExploreResponse struct {
	Outcomes []explore.SourcedOutcome `json:"outcomes"`
	// BestEDP as in ExploreResponse; winning cells are always simulated
	// (the pruner's contract).
	BestEDP   map[string]string `json:"best_edp"`
	Simulated int               `json:"simulated"`
	Pruned    int               `json:"pruned"`
}

// NewSurrogateExploreResponse assembles the wire form of a pruned
// exploration.
func NewSurrogateExploreResponse(cells []explore.SourcedOutcome) *SurrogateExploreResponse {
	resp := &SurrogateExploreResponse{Outcomes: cells, BestEDP: make(map[string]string)}
	for app, o := range explore.BestByEDP(explore.Outcomes(cells)) {
		resp.BestEDP[app] = o.Option.Name
	}
	for _, c := range cells {
		if c.Source == "surrogate" {
			resp.Pruned++
		} else {
			resp.Simulated++
		}
	}
	return resp
}

// handleRunSurrogate serves a surrogate-mode run. The hit path answers
// straight from the active fit — no admission slot, no singleflight, no
// response cache; the whole point is that it costs microseconds. Misses
// fall back to the standard coalesced simulation path, whose result both
// answers this request (source "simulation": exact, trivially within any
// bound) and trains the next refit through the rig's store feed.
func (s *Server) handleRunSurrogate(w http.ResponseWriter, r *http.Request, req *RunRequest) {
	if s.surr != nil && req.Faults == "" && !req.DTM {
		if rig, err := s.rigs.get(req.Scale, req.Chip); err == nil {
			point := rig.Table.Nominal()
			if req.FreqMHz > 0 {
				point = rig.Table.PointFor(req.FreqMHz * 1e6)
			}
			if pred, fit, ok := s.surr.Predict(rig.SurrogateKey(req.App), req.N, point.Freq, point.Volt); ok {
				s.reg.VolatileCounter("surrogate_hits_total").Add(1)
				resp, err := okJSON(&SurrogateRunResponse{
					Source: "surrogate", Bound: fit.Bound, Prediction: &pred,
				})
				if err != nil {
					s.writeError(w, http.StatusInternalServerError, err)
					return
				}
				w.Header().Set(HeaderSource, "surrogate")
				w.Header().Set(HeaderBound, strconv.FormatFloat(fit.Bound, 'g', -1, 64))
				s.writeResponse(w, resp)
				return
			}
		}
	}
	s.reg.VolatileCounter("surrogate_misses_total").Add(1)
	w.Header().Set(HeaderSource, "simulation")
	s.serveCoalesced(w, r, cacheKey("/v1/run", req), func(ctx context.Context) (*response, error) {
		m, err := s.computeRun(ctx, req)
		if err != nil {
			return nil, err
		}
		return okJSON(&SurrogateRunResponse{Source: "simulation", Measurement: m})
	})
}

// handleExploreSurrogate serves a surrogate-mode exploration through the
// standard coalesced path — pruned or not, an exploration simulates most
// of its grid. The cache key folds in the store generation so a response
// derived from a superseded fit is never served after a refit.
func (s *Server) handleExploreSurrogate(w http.ResponseWriter, r *http.Request, req *ExploreRequest) {
	var gen int64
	if s.surr != nil {
		gen = s.surr.Generation()
	}
	key := fmt.Sprintf("%s#surrogate-gen=%d", cacheKey("/v1/explore", req), gen)
	s.serveCoalesced(w, r, key, func(ctx context.Context) (*response, error) {
		apps, err := resolveApps(req.Apps)
		if err != nil {
			return nil, err
		}
		rig, err := s.rigs.get(req.Scale, req.Chip)
		if err != nil {
			return nil, err
		}
		cells, err := explore.Explore(ctx, apps, explore.StandardOptions(), req.Chip,
			req.Scale, 1, s.reg, s.surr, rig.SurrogateKey)
		if err != nil {
			return nil, err
		}
		return okJSON(NewSurrogateExploreResponse(cells))
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"cmppower"
	"cmppower/internal/server"
)

// responseCheck inspects the responses a player receives: it checks that
// every surrogate-mode answer names its source, and keeps a sample of
// exact-mode answers for verify to compare with the library.
type responseCheck struct {
	every, keep int

	seen          atomic.Int64
	surrogate     atomic.Int64
	surrogateHits atomic.Int64
	badSource     atomic.Int64

	mu   sync.Mutex
	kept map[string][]byte // request body → response body
}

func newResponseCheck(every, keep int) *responseCheck {
	return &responseCheck{every: every, keep: keep, kept: make(map[string][]byte)}
}

// see returns the player callback for calls.
func (rc *responseCheck) see(calls []call) inspect {
	return func(i int, body []byte) {
		if calls[i].surrogate {
			// The router drops the X-Cmppower-Source header, so the source
			// is read from the body, where it is the first field.
			rc.surrogate.Add(1)
			switch {
			case bytes.HasPrefix(body, []byte(`{"source":"surrogate"`)):
				rc.surrogateHits.Add(1)
			case bytes.HasPrefix(body, []byte(`{"source":"simulation"`)):
			default:
				rc.badSource.Add(1)
			}
			return
		}
		if rc.seen.Add(1)%int64(rc.every) != 0 {
			return
		}
		rc.mu.Lock()
		defer rc.mu.Unlock()
		if len(rc.kept) < rc.keep {
			rc.kept[string(calls[i].body)] = body
		}
	}
}

// verify compares every kept exact-mode response byte for byte with the
// library's answer to the same request.
func (rc *responseCheck) verify(ctx context.Context, res *result) error {
	if n := rc.badSource.Load(); n > 0 {
		res.problem("%d surrogate-mode responses named no source", n)
	}
	rigs := newRigCache()
	for reqBody, got := range rc.kept {
		want, err := libraryResponse(ctx, rigs, []byte(reqBody))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			res.problem("response to %s differs from the library's:\n got %s\nwant %s", reqBody, got, want)
		}
	}
	return nil
}

// rigCache holds one calibrated rig per (scale, chip) for computing the
// library's answer to a request, as the server's rig pool does.
type rigCache map[string]*cmppower.Experiment

func newRigCache() rigCache { return make(rigCache) }

func (rc rigCache) forRequest(req *server.RunRequest) (*cmppower.Experiment, error) {
	key := fmt.Sprint(req.Scale)
	if req.Chip != nil {
		d, err := req.Chip.Digest()
		if err != nil {
			return nil, err
		}
		key += "/" + d
	}
	if rig, ok := rc[key]; ok {
		return rig, nil
	}
	rig, err := cmppower.NewExperimentFromScenario(req.Chip, req.Scale)
	if err != nil {
		return nil, err
	}
	rc[key] = rig
	return rig, nil
}

// decodeRun decodes and normalizes a /v1/run body as the server does.
func decodeRun(body []byte) (*server.RunRequest, error) {
	var req server.RunRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	req.ApplyDefaults()
	return &req, req.Validate()
}

// simulateRun runs a decoded request on rig as the server does.
func simulateRun(ctx context.Context, rig *cmppower.Experiment, req *server.RunRequest) (*cmppower.Measurement, error) {
	w := rig.Clone()
	w.Seed = req.Seed
	if req.DTM {
		d := cmppower.DefaultDTMConfig()
		w.DTM = &d
	}
	app, err := cmppower.AppByName(req.App)
	if err != nil {
		return nil, err
	}
	point := w.Table.Nominal()
	if req.FreqMHz > 0 {
		point = w.Table.PointFor(req.FreqMHz * 1e6)
	}
	return w.RunAppSeeded(ctx, app, req.N, point, req.Seed)
}

// encodeRun serializes the response body for a simulated request.
func encodeRun(req *server.RunRequest, m *cmppower.Measurement) ([]byte, error) {
	if req.Mode == server.ModeSurrogate {
		return json.Marshal(&server.SurrogateRunResponse{Source: "simulation", Measurement: m})
	}
	resp := server.RunResponse{Measurement: m}
	if req.Chip != nil {
		d, err := req.Chip.Digest()
		if err != nil {
			return nil, err
		}
		resp.ChipDigest = d
	}
	return json.Marshal(&resp)
}

// libraryResponse is the body the server must send for an exact request.
func libraryResponse(ctx context.Context, rigs rigCache, body []byte) ([]byte, error) {
	req, err := decodeRun(body)
	if err != nil {
		return nil, err
	}
	rig, err := rigs.forRequest(req)
	if err != nil {
		return nil, err
	}
	m, err := simulateRun(ctx, rig, req)
	if err != nil {
		return nil, err
	}
	return encodeRun(req, m)
}

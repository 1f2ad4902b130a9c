package server

import (
	"fmt"
	"math"
	"strings"

	"cmppower/internal/check"
	"cmppower/internal/experiment"
	"cmppower/internal/explore"
	"cmppower/internal/identity"
	"cmppower/internal/scenario"
	"cmppower/internal/splash"
)

// Request-side defaults. Serving defaults to a reduced workload scale:
// interactive queries want millisecond-class simulations, and the scale
// is part of every cache key so callers that need the full problem size
// simply ask for it.
const (
	defaultScale = 0.1
	defaultSeed  = 1
)

// RunRequest is the body of POST /v1/run: simulate one application on n
// cores and evaluate power and temperature. Zero-valued fields take the
// documented defaults, and the normalized form (after ApplyDefaults) is
// the request's cache/coalescing identity.
type RunRequest struct {
	// App is the SPLASH-2 application model name, e.g. "FFT".
	App string `json:"app"`
	// N is the active core count.
	N int `json:"n"`
	// Scale is the workload scale factor (default 0.1).
	Scale float64 `json:"scale,omitempty"`
	// Seed is the workload seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// FreqMHz selects the operating point (0 = the nominal point).
	FreqMHz float64 `json:"freq_mhz,omitempty"`
	// Faults is an optional fault-injection spec (see faults.ParseSpec).
	// Fault-injected runs bypass the memo layer by design.
	Faults string `json:"faults,omitempty"`
	// DTM enables the dynamic thermal-management controller replay.
	DTM bool `json:"dtm,omitempty"`
	// Mode selects the serving path: "" or "exact" (full simulation,
	// byte-identical to the library) or "surrogate" (the analytical fit
	// may answer when the query is inside its confidence region; the
	// response carries source and error bound either way). The
	// X-Cmppower-Approx header is folded into this field, so Mode is part
	// of the cache identity. "exact" normalizes to "" — the two spell the
	// same request.
	Mode string `json:"mode,omitempty"`
	// Chip is an optional scenario document describing the chip to
	// simulate (see internal/scenario). Omitted means the paper's Table 1
	// baseline. The normalized scenario is part of the cache identity, and
	// the response echoes its content digest.
	Chip *scenario.Scenario `json:"chip,omitempty"`
}

// ApplyDefaults normalizes the request in place so that two requests
// meaning the same run share one cache key.
func (r *RunRequest) ApplyDefaults() {
	if r.Scale == 0 {
		r.Scale = defaultScale
	}
	if r.Seed == 0 {
		r.Seed = defaultSeed
	}
	r.App = strings.TrimSpace(r.App)
	r.Faults = strings.TrimSpace(r.Faults)
	r.Mode = normalizeMode(r.Mode)
	normalizeChip(r.Chip)
}

// Validate rejects requests the rig would reject, with a client-side
// error instead of a burned worker slot.
func (r *RunRequest) Validate() error {
	if _, err := splash.ByName(r.App); err != nil {
		return err
	}
	maxN, err := validateChip(r.Chip)
	if err != nil {
		return err
	}
	if r.N < 1 || r.N > maxN {
		return fmt.Errorf("n %d outside [1,%d]", r.N, maxN)
	}
	if err := checkScale(r.Scale); err != nil {
		return err
	}
	if !check.In(r.FreqMHz, 0, math.MaxFloat64) {
		return check.Fail("freq_mhz", r.FreqMHz, "freq_mhz %g must be finite and non-negative", r.FreqMHz)
	}
	return validateMode(r.Mode)
}

// RunResponse is the body of a successful POST /v1/run.
type RunResponse struct {
	Measurement *experiment.Measurement `json:"measurement"`
	// ChipDigest echoes the content digest of the request's chip scenario
	// (absent when the request used the implicit baseline chip).
	ChipDigest string `json:"chip_digest,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: a Scenario I (Fig. 3) or
// Scenario II (Fig. 4) sweep over applications × core counts.
type SweepRequest struct {
	// Scenario selects the experiment: "I" (performance target) or "II"
	// (power budget).
	Scenario string `json:"scenario"`
	// Apps lists application names; empty means the full catalog.
	Apps []string `json:"apps,omitempty"`
	// CoreCounts defaults to {1,2,4,8,16}.
	CoreCounts []int `json:"core_counts,omitempty"`
	// Scale, Seed, Faults, DTM as in RunRequest.
	Scale  float64 `json:"scale,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
	Faults string  `json:"faults,omitempty"`
	DTM    bool    `json:"dtm,omitempty"`
	// Retries bounds per-app attempts for injected-transient failures
	// (default 3).
	Retries int `json:"retries,omitempty"`
	// Chip as in RunRequest: an optional scenario document for the chip.
	Chip *scenario.Scenario `json:"chip,omitempty"`
}

// ApplyDefaults normalizes the request in place (cache identity).
func (r *SweepRequest) ApplyDefaults() {
	r.Scenario = strings.ToUpper(strings.TrimSpace(r.Scenario))
	if len(r.Apps) == 0 {
		r.Apps = splash.Names()
	}
	for i := range r.Apps {
		r.Apps[i] = strings.TrimSpace(r.Apps[i])
	}
	if len(r.CoreCounts) == 0 {
		r.CoreCounts = []int{1, 2, 4, 8, 16}
	}
	if r.Scale == 0 {
		r.Scale = defaultScale
	}
	if r.Seed == 0 {
		r.Seed = defaultSeed
	}
	if r.Retries == 0 {
		r.Retries = experiment.DefaultRetryConfig().Attempts
	}
	r.Faults = strings.TrimSpace(r.Faults)
	normalizeChip(r.Chip)
}

// Validate rejects malformed sweeps before admission.
func (r *SweepRequest) Validate() error {
	if r.Scenario != "I" && r.Scenario != "II" {
		return fmt.Errorf("scenario %q (want I or II)", r.Scenario)
	}
	for _, name := range r.Apps {
		if _, err := splash.ByName(name); err != nil {
			return err
		}
	}
	maxN, err := validateChip(r.Chip)
	if err != nil {
		return err
	}
	for _, n := range r.CoreCounts {
		if n < 1 || n > maxN {
			return fmt.Errorf("core count %d outside [1,%d]", n, maxN)
		}
	}
	if err := checkScale(r.Scale); err != nil {
		return err
	}
	if r.Retries < 1 || r.Retries > 10 {
		return fmt.Errorf("retries %d outside [1,10]", r.Retries)
	}
	return nil
}

// SweepAppResult is one application's outcome in a SweepResponse; the
// sweep engine's SweepOutcome with its error flattened to a string so
// the response is JSON-serializable and byte-stable.
type SweepAppResult struct {
	App      string                       `json:"app"`
	Attempts int                          `json:"attempts"`
	I        *experiment.ScenarioIResult  `json:"scenario_i,omitempty"`
	II       *experiment.ScenarioIIResult `json:"scenario_ii,omitempty"`
	Error    string                       `json:"error,omitempty"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	Scenario string           `json:"scenario"`
	BudgetW  float64          `json:"budget_w,omitempty"`
	Outcomes []SweepAppResult `json:"outcomes"`
	// ChipDigest echoes the request chip's content digest (absent for the
	// implicit baseline chip).
	ChipDigest string `json:"chip_digest,omitempty"`
}

// NewSweepResponse flattens sweep outcomes into the wire form. Exported
// so the doctor check can build the expected body straight from a
// library-level sweep and compare bytes.
func NewSweepResponse(scenario string, budgetW float64, outcomes []experiment.SweepOutcome) *SweepResponse {
	resp := &SweepResponse{Scenario: scenario, Outcomes: make([]SweepAppResult, 0, len(outcomes))}
	if scenario == "II" {
		resp.BudgetW = budgetW
	}
	for _, o := range outcomes {
		r := SweepAppResult{App: o.App, Attempts: o.Attempts, I: o.I, II: o.II}
		if o.Err != nil {
			r.Error = o.Err.Error()
		}
		resp.Outcomes = append(resp.Outcomes, r)
	}
	return resp
}

// ExploreRequest is the body of POST /v1/explore: the iso-area
// design-space exploration over the standard chip organizations.
type ExploreRequest struct {
	// Apps lists application names; empty means the explore command's
	// default quartet.
	Apps []string `json:"apps,omitempty"`
	// Scale is the workload scale factor (default 0.1).
	Scale float64 `json:"scale,omitempty"`
	// Mode as in RunRequest: "surrogate" lets the active fits prune
	// clearly-dominated cells instead of simulating them, with per-cell
	// provenance in the response.
	Mode string `json:"mode,omitempty"`
	// Chip as in RunRequest. The exploration varies the organization
	// (core count, width, L2), so the scenario contributes its global axes
	// — node, die, stacking, thermal, ladder, memory switches — while its
	// core count, DVFS domains, and class assignment are superseded per
	// option (see explore.Explore).
	Chip *scenario.Scenario `json:"chip,omitempty"`
}

// ApplyDefaults normalizes the request in place (cache identity).
func (r *ExploreRequest) ApplyDefaults() {
	if len(r.Apps) == 0 {
		r.Apps = []string{"Barnes", "FMM", "Ocean", "Radix"}
	}
	for i := range r.Apps {
		r.Apps[i] = strings.TrimSpace(r.Apps[i])
	}
	if r.Scale == 0 {
		r.Scale = defaultScale
	}
	r.Mode = normalizeMode(r.Mode)
	normalizeChip(r.Chip)
}

// Validate rejects malformed explorations before admission.
func (r *ExploreRequest) Validate() error {
	for _, name := range r.Apps {
		if _, err := splash.ByName(name); err != nil {
			return err
		}
	}
	if _, err := validateChip(r.Chip); err != nil {
		return err
	}
	if err := checkScale(r.Scale); err != nil {
		return err
	}
	return validateMode(r.Mode)
}

// ExploreResponse is the body of a successful POST /v1/explore.
type ExploreResponse struct {
	Outcomes []explore.Outcome `json:"outcomes"`
	// BestEDP maps each application to the organization with the lowest
	// EDP, in sorted app order inside the JSON object.
	BestEDP map[string]string `json:"best_edp"`
	// ChipDigest echoes the request chip's content digest (absent for the
	// implicit baseline chip).
	ChipDigest string `json:"chip_digest,omitempty"`
}

// NewExploreResponse assembles the wire form of an exploration.
func NewExploreResponse(outs []explore.Outcome) *ExploreResponse {
	resp := &ExploreResponse{Outcomes: outs, BestEDP: make(map[string]string)}
	for app, o := range explore.BestByEDP(outs) {
		resp.BestEDP[app] = o.Option.Name
	}
	return resp
}

// checkScale refuses a request's workload scale outside (0, 4], NaN
// and the infinities included.
func checkScale(scale float64) error {
	if !(scale > 0 && scale <= 4) {
		return check.Fail("scale", scale, "scale %g outside (0,4]", scale)
	}
	return nil
}

// normalizeChip canonicalizes an optional chip scenario in place so two
// documents meaning the same chip share one cache key (nil is a no-op —
// the absent chip is the baseline).
func normalizeChip(sc *scenario.Scenario) {
	if sc != nil {
		sc.Normalize()
	}
}

// validateChip validates an optional chip scenario and returns the
// request's core-count bound: the scenario's physical core count when one
// is given, the baseline's 16 otherwise.
func validateChip(sc *scenario.Scenario) (maxN int, err error) {
	if sc == nil {
		return 16, nil
	}
	if err := sc.Validate(); err != nil {
		return 0, fmt.Errorf("chip: %w", err)
	}
	return sc.Chip.TotalCores, nil
}

// chipDigest returns the response echo of an optional chip scenario: its
// full content digest, or "" when the request used the implicit baseline.
// Callers validate first, so the digest cannot fail.
func chipDigest(sc *scenario.Scenario) string {
	if sc == nil {
		return ""
	}
	d, err := sc.Digest()
	if err != nil {
		return ""
	}
	return d
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// cacheKey derives the canonical identity of a normalized request. The
// definition lives in internal/identity so the fleet router hashes the
// exact key the response cache and singleflight group here key on —
// that shared identity is what makes affinity routing keep each shard's
// caches hot.
func cacheKey(path string, normalized any) string {
	return identity.Key(path, normalized)
}

// resolveApps resolves names in input order (the sweep engine preserves
// input order, so the key must too — no sorting, just trimming); kept
// here so handlers share one resolver.
func resolveApps(names []string) ([]splash.App, error) {
	apps := make([]splash.App, 0, len(names))
	for _, name := range names {
		a, err := splash.ByName(name)
		if err != nil {
			return nil, err
		}
		apps = append(apps, a)
	}
	return apps, nil
}

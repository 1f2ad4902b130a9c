// Compile: spec → merged deterministic arrival schedule, and the
// schedule's canonical plan report (per-client counts, scheduled-rate
// and inter-arrival percentiles, sha256 digest). Same spec + same seed
// produce byte-identical schedules and reports on every host.

package traffic

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"

	"cmppower/internal/identity"
	"cmppower/internal/scenario"
)

// Arrival is one scheduled request: when, who, where, what.
type Arrival struct {
	// AtMicros is the arrival offset from schedule start.
	AtMicros int64 `json:"t_us"`
	// Client and Class tag the request (HeaderClient / HeaderClass).
	Client string `json:"client"`
	Class  string `json:"class"`
	// Endpoint is the wire path (/v1/run, /v1/sweep, /v1/explore).
	Endpoint string `json:"endpoint"`
	// Body is the JSON request body.
	Body json.RawMessage `json:"body"`
}

// Schedule is a compiled (or trace-loaded) arrival sequence, sorted by
// time with deterministic tie-breaks.
type Schedule struct {
	// Seed is the spec seed that produced the schedule (0 for traces).
	Seed uint64 `json:"seed"`
	// TargetRPS is the spec's aggregate rate (0 for traces).
	TargetRPS float64 `json:"target_rps,omitempty"`
	// DurationSec is the schedule horizon.
	DurationSec float64 `json:"duration_sec"`
	// Targets maps client name → target arrival rate (nil for traces).
	// Maps marshal with sorted keys, so this stays byte-deterministic.
	Targets map[string]float64 `json:"targets,omitempty"`
	// Arrivals in play order.
	Arrivals []Arrival `json:"arrivals"`
}

// wire body shapes. These mirror the server's request structs field for
// field (the server cannot be imported here — its load generator
// imports this package), and field order is the JSON byte order, so a
// generated body is exactly what a hand-written client would send.
type runBody struct {
	App     string             `json:"app"`
	N       int                `json:"n"`
	Scale   float64            `json:"scale,omitempty"`
	Seed    uint64             `json:"seed,omitempty"`
	FreqMHz float64            `json:"freq_mhz,omitempty"`
	Chip    *scenario.Scenario `json:"chip,omitempty"`
}

type sweepBody struct {
	Scenario string             `json:"scenario"`
	Apps     []string           `json:"apps,omitempty"`
	Scale    float64            `json:"scale,omitempty"`
	Seed     uint64             `json:"seed,omitempty"`
	Chip     *scenario.Scenario `json:"chip,omitempty"`
}

type exploreBody struct {
	Apps  []string           `json:"apps,omitempty"`
	Scale float64            `json:"scale,omitempty"`
	Chip  *scenario.Scenario `json:"chip,omitempty"`
}

// defaultCores is the run template's core-count choice set.
var defaultCores = []int{1, 2, 4, 8, 16}

// defaultScenarios is the sweep template's scenario choice set.
var defaultScenarios = []string{"I", "II"}

// Compile expands the spec into the merged arrival schedule. The result
// is a pure function of the spec: per-client streams are forked from
// (seed, client name), arrivals are generated until the horizon, and
// the merge breaks timestamp ties by client name then sequence.
func Compile(spec *Spec) (*Schedule, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	horizonUs := int64(spec.DurationSec * 1e6)
	type seqArrival struct {
		Arrival
		seq int
	}
	var all []seqArrival
	for ci := range spec.Clients {
		c := &spec.Clients[ci]
		arrivals := newStream(spec.Seed, "arrival:"+c.Name)
		params := newStream(spec.Seed, "params:"+c.Name)
		gap := interArrival(c.Arrival, 1/(c.RateFraction*spec.RateRPS), arrivals)
		// varySeq numbers this client's vary_seed requests; mixing it
		// with the spec seed gives distinct deterministic workload seeds
		// that never collide with the servers' default seed space.
		varySeq := uint64(0)
		t := gap() // first arrival is one gap in, not at t=0
		for seq := 0; ; seq++ {
			atUs := int64(t * 1e6)
			if atUs >= horizonUs {
				break
			}
			if len(all) >= MaxArrivals {
				return nil, fmt.Errorf("traffic: client %q takes the schedule past %g arrivals", c.Name, MaxArrivals)
			}
			tmpl := chooseTemplate(c.Requests, params)
			body, err := buildBody(tmpl, params, spec.Seed, &varySeq)
			if err != nil {
				return nil, fmt.Errorf("traffic: client %q: %w", c.Name, err)
			}
			all = append(all, seqArrival{Arrival{
				AtMicros: atUs,
				Client:   c.Name,
				Class:    c.Class,
				Endpoint: normalizeEndpoint(tmpl.Endpoint),
				Body:     body,
			}, seq})
			t += gap()
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.AtMicros != b.AtMicros {
			return a.AtMicros < b.AtMicros
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.seq < b.seq
	})
	out := &Schedule{
		Seed:        spec.Seed,
		TargetRPS:   spec.RateRPS,
		DurationSec: spec.DurationSec,
		Targets:     spec.PerClientTarget(),
		Arrivals:    make([]Arrival, len(all)),
	}
	for i := range all {
		out.Arrivals[i] = all[i].Arrival
	}
	return out, nil
}

// chooseTemplate draws one template by weight.
func chooseTemplate(templates []TemplateSpec, s *stream) *TemplateSpec {
	if len(templates) == 1 {
		return &templates[0]
	}
	var total float64
	for i := range templates {
		total += templates[i].weight()
	}
	x := s.float64() * total
	for i := range templates {
		x -= templates[i].weight()
		if x < 0 {
			return &templates[i]
		}
	}
	return &templates[len(templates)-1]
}

// buildBody draws the template's parameter choices and marshals the
// wire body.
func buildBody(t *TemplateSpec, s *stream, specSeed uint64, varySeq *uint64) (json.RawMessage, error) {
	var seed uint64
	if t.VarySeed {
		*varySeq++
		// >>1 keeps the seed positive in any signed consumer; +2 skips
		// the servers' defaulted seeds 0 and 1 so a varied request can
		// never alias the cached default identity.
		seed = identity.Mix(specSeed, *varySeq)>>1 + 2
	}
	switch normalizeEndpoint(t.Endpoint) {
	case PathRun:
		cores := t.Cores
		if len(cores) == 0 {
			cores = defaultCoresFor(t.Chip)
		}
		var mhz float64
		if len(t.Freqs) > 0 {
			mhz = t.Freqs[s.intn(len(t.Freqs))]
		}
		return json.Marshal(&runBody{
			App:     t.Apps[s.intn(len(t.Apps))],
			N:       cores[s.intn(len(cores))],
			Scale:   t.Scale,
			Seed:    seed,
			FreqMHz: mhz,
			Chip:    t.Chip,
		})
	case PathSweep:
		scenarios := t.Scenarios
		if len(scenarios) == 0 {
			scenarios = defaultScenarios
		}
		return json.Marshal(&sweepBody{
			Scenario: scenarios[s.intn(len(scenarios))],
			Apps:     chooseApps(t.Apps, s),
			Scale:    t.Scale,
			Seed:     seed,
			Chip:     t.Chip,
		})
	case PathExplore:
		return json.Marshal(&exploreBody{
			Apps:  chooseApps(t.Apps, s),
			Scale: t.Scale,
			Chip:  t.Chip,
		})
	}
	return nil, fmt.Errorf("unknown endpoint %q", t.Endpoint)
}

// defaultCoresFor clamps the default core choice set to the template
// chip's physical core count, so a small-chip template never schedules a
// request its own chip rejects (chips wider than 16 cores keep the
// paper's choice set — callers list larger counts explicitly).
func defaultCoresFor(chip *scenario.Scenario) []int {
	if chip == nil || chip.Chip.TotalCores >= 16 {
		return defaultCores
	}
	var cores []int
	for _, n := range defaultCores {
		if n <= chip.Chip.TotalCores {
			cores = append(cores, n)
		}
	}
	if len(cores) == 0 {
		cores = []int{1}
	}
	return cores
}

// chooseApps draws one app from a non-empty choice set; an empty set
// passes through (the server substitutes its default catalog).
func chooseApps(apps []string, s *stream) []string {
	if len(apps) == 0 {
		return nil
	}
	return []string{apps[s.intn(len(apps))]}
}

// ClientPlan is one client's slice of the plan report.
type ClientPlan struct {
	Client string `json:"client"`
	Class  string `json:"class"`
	// Requests scheduled inside the horizon.
	Requests int `json:"requests"`
	// TargetRPS is rate_fraction × the aggregate rate; ScheduledRPS is
	// what the sampled arrivals actually average over the horizon.
	TargetRPS    float64 `json:"target_rps"`
	ScheduledRPS float64 `json:"scheduled_rps"`
	// Inter-arrival nearest-rank percentiles (microseconds).
	GapP50Us int64 `json:"gap_p50_us"`
	GapP99Us int64 `json:"gap_p99_us"`
}

// PlanReport is the deterministic summary of a compiled schedule: what
// `loadgen -spec FILE -plan` emits, byte-identical for a given spec and
// seed, and what the replay test pins.
type PlanReport struct {
	Seed          uint64  `json:"seed"`
	TargetRPS     float64 `json:"target_rps,omitempty"`
	DurationSec   float64 `json:"duration_sec"`
	TotalRequests int     `json:"total_requests"`
	// Digest is a sha256 over every arrival's canonical encoding — two
	// schedules agree on Digest iff they agree byte for byte.
	Digest  string       `json:"digest"`
	Clients []ClientPlan `json:"clients"`
}

// Report folds the schedule into its canonical plan report, clients in
// sorted name order.
func (s *Schedule) Report() *PlanReport {
	rep := &PlanReport{
		Seed:          s.Seed,
		TargetRPS:     s.TargetRPS,
		DurationSec:   s.DurationSec,
		TotalRequests: len(s.Arrivals),
		Digest:        s.Digest(),
	}
	byClient := make(map[string]*ClientPlan)
	lastAt := make(map[string]int64)
	gaps := make(map[string][]int64)
	var order []string
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		cp, ok := byClient[a.Client]
		if !ok {
			cp = &ClientPlan{Client: a.Client, Class: a.Class}
			byClient[a.Client] = cp
			order = append(order, a.Client)
		} else {
			gaps[a.Client] = append(gaps[a.Client], a.AtMicros-lastAt[a.Client])
		}
		cp.Requests++
		lastAt[a.Client] = a.AtMicros
	}
	sort.Strings(order)
	for _, name := range order {
		cp := byClient[name]
		cp.TargetRPS = s.Targets[name]
		if s.DurationSec > 0 {
			cp.ScheduledRPS = float64(cp.Requests) / s.DurationSec
		}
		if g := gaps[name]; len(g) > 0 {
			sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
			cp.GapP50Us = nearestRank(g, 0.50)
			cp.GapP99Us = nearestRank(g, 0.99)
		}
		rep.Clients = append(rep.Clients, *cp)
	}
	return rep
}

// nearestRank reads the nearest-rank percentile from a sorted sample.
func nearestRank(sorted []int64, q float64) int64 {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Digest is the canonical sha256 over the arrival sequence.
func (s *Schedule) Digest() string {
	h := sha256.New()
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		fmt.Fprintf(h, "%d,%s,%s,%s,%s\n", a.AtMicros, a.Client, a.Class, a.Endpoint, a.Body)
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

// PerClientTarget returns each client's target arrival rate, for
// achieved-vs-target accounting during play.
func (s *Spec) PerClientTarget() map[string]float64 {
	out := make(map[string]float64, len(s.Clients))
	for i := range s.Clients {
		c := &s.Clients[i]
		out[c.Name] = c.RateFraction * s.RateRPS
	}
	return out
}

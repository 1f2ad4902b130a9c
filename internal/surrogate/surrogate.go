// Package surrogate fits and serves closed-form per-(app, scale)
// surrogates of the simulator: the paper's analytical model (§2) with
// its free parameters — the efficiency curve ε(N) and power
// coefficients — estimated online from completed simulation results
// (ROADMAP item 3, DESIGN.md §14).
//
// The contract is conservative: a fit only activates once its training
// set spans enough distinct core counts and frequencies to identify the
// model, and a deterministic held-out split bounds its residual error.
// Queries are answered only inside the fitted-domain hull (a trained
// core count, a frequency within the trained span), with the advertised
// error bound echoed to the caller; everything else falls back to full
// simulation, which in turn feeds the next refit. Seeds are pooled —
// the surrogate predicts the run, not the seed — so cross-seed variance
// lands in the held-out residuals and is covered by the bound.
package surrogate

import (
	"math"
	"sort"
	"sync"

	"cmppower/internal/obs"
)

// Key identifies one surrogate: an application at a workload scale on a
// specific rig configuration (core count and simulator mode flags —
// anything that changes the simulated physics needs its own fit). The
// workload seed is deliberately absent.
type Key struct {
	App    string
	Scale  float64
	Config string
}

// Sample is one completed simulation result, the surrogate's training
// unit. Freq/Volt are the absolute operating point; Seconds and the
// power split (PowerW = DynW + StaticW) the measured outcome — the
// split is kept because dynamic and static power follow different
// physics and are fitted separately.
type Sample struct {
	N       int
	Freq    float64
	Volt    float64
	Seconds float64
	PowerW  float64
	DynW    float64
	StaticW float64
}

// valid rejects samples that would poison a fit.
func (s Sample) valid() bool {
	for _, v := range []float64{s.Freq, s.Volt, s.Seconds, s.PowerW, s.DynW, s.StaticW, float64(s.N)} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return false
		}
	}
	return s.N >= 1
}

// Options parameterizes a Store's sample window and metrics; the zero
// value takes the documented defaults. The activation rules a fit must
// pass are fixed (minSamples through maxBound in fit.go).
type Options struct {
	// MaxSamples bounds each key's sample window (FIFO beyond the bound;
	// <= 0 means 512).
	MaxSamples int
	// Registry receives the surrogate metrics (all volatile); nil is
	// free.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxSamples <= 0 {
		o.MaxSamples = 512
	}
	return o
}

// Store holds samples and fits for many keys. It is concurrency-safe;
// the experiment rig feeds it from completed runs and the server reads
// it on the approximate path.
type Store struct {
	mu      sync.Mutex
	opt     Options
	reg     *obs.Registry
	buckets map[Key]*bucket
	gen     int64
}

// bucket is one key's state: the sample window and the (lazily refit)
// current fit.
type bucket struct {
	nomFreq, nomVolt float64
	samples          []Sample
	dirty            bool
	fit              *Fit
	reason           string
}

// NewStore builds an empty store.
func NewStore(opt Options) *Store {
	o := opt.withDefaults()
	return &Store{opt: o, reg: o.Registry, buckets: make(map[Key]*bucket)}
}

// Observe records one completed simulation. Invalid samples (NaN/Inf or
// non-positive fields) are rejected and counted. When the key already
// has an active fit covering the sample's point, the fresh truth is
// first scored against the prediction — the abs-err histogram and the
// bound-violation counter are the store's continuous self-check.
func (s *Store) Observe(key Key, nomFreqHz, nomVolt float64, smp Sample) {
	if !smp.valid() || math.IsNaN(key.Scale) || math.IsInf(key.Scale, 0) {
		s.reg.VolatileCounter("surrogate_rejected_samples_total").Add(1)
		return
	}
	s.mu.Lock()
	b := s.buckets[key]
	if b == nil {
		b = &bucket{nomFreq: nomFreqHz, nomVolt: nomVolt}
		s.buckets[key] = b
	}
	var scored *Fit
	if b.fit != nil && b.fit.InRegion(smp.N, smp.Freq) {
		scored = b.fit
	}
	b.samples = append(b.samples, smp)
	if len(b.samples) > s.opt.MaxSamples {
		b.samples = b.samples[len(b.samples)-s.opt.MaxSamples:]
	}
	b.dirty = true
	s.mu.Unlock()

	s.reg.VolatileCounter("surrogate_samples_total").Add(1)
	if scored != nil {
		p := scored.predict(smp.N, smp.Freq, smp.Volt)
		err := math.Max(math.Abs(p.Seconds-smp.Seconds)/smp.Seconds,
			math.Abs(p.PowerW-smp.PowerW)/smp.PowerW)
		s.reg.VolatileHistogram("surrogate_abs_err", absErrBounds).Observe(err)
		if err > scored.Bound {
			s.reg.VolatileCounter("surrogate_bound_violations_total").Add(1)
		}
	}
}

// absErrBounds bins observed surrogate-vs-simulation relative error.
var absErrBounds = []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}

// FitFor returns the key's active fit, refitting first if new samples
// arrived since the last fit. Nil means the surrogate refuses this key
// for now (not enough data, degenerate geometry, or a residual bound
// over budget); Reason explains the refusal.
func (s *Store) FitFor(key Key) *Fit {
	f, _ := s.fitAndReason(key)
	return f
}

// Reason returns the latest refusal reason for a key with no active fit
// ("" when a fit is active or the key is unknown).
func (s *Store) Reason(key Key) string {
	_, r := s.fitAndReason(key)
	return r
}

func (s *Store) fitAndReason(key Key) (*Fit, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.buckets[key]
	if b == nil {
		return nil, "no samples"
	}
	if b.dirty {
		b.dirty = false
		res := fit(key, b.nomFreq, b.nomVolt, b.samples)
		b.fit, b.reason = res.fit, res.reason
		s.gen++
		s.reg.VolatileCounter("surrogate_refreshes_total").Add(1)
		active := 0
		for _, ob := range s.buckets {
			if ob.fit != nil {
				active++
			}
		}
		s.reg.VolatileGauge("surrogate_fits_active").Set(float64(active))
	}
	return b.fit, b.reason
}

// Predict answers a query from the key's surrogate: the prediction, the
// fit that produced it, and whether the query was inside an active
// fit's confidence region.
func (s *Store) Predict(key Key, n int, freqHz, volt float64) (Prediction, *Fit, bool) {
	f := s.FitFor(key)
	if f == nil {
		return Prediction{}, nil, false
	}
	p, ok := f.Predict(n, freqHz, volt)
	if !ok {
		return Prediction{}, nil, false
	}
	return p, f, true
}

// Generation counts refits across all keys; it folds into cache keys so
// responses derived from a superseded fit are never served.
func (s *Store) Generation() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Samples returns a copy of the key's current sample window, in
// deterministic sorted order (the order the fitter sees).
func (s *Store) Samples(key Key) []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.buckets[key]
	if b == nil {
		return nil
	}
	out := append([]Sample(nil), b.samples...)
	sort.Slice(out, func(i, j int) bool {
		a, c := out[i], out[j]
		switch {
		case a.N != c.N:
			return a.N < c.N
		case a.Freq != c.Freq:
			return a.Freq < c.Freq
		case a.Volt != c.Volt:
			return a.Volt < c.Volt
		case a.Seconds != c.Seconds:
			return a.Seconds < c.Seconds
		default:
			return a.PowerW < c.PowerW
		}
	})
	return out
}

package surrogate

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cmppower/internal/core"
	"cmppower/internal/obs"
)

const (
	synthNomFreq = 3.2e9
	synthNomVolt = 1.1
)

// synthKey is the key every synthetic fixture fits under.
var synthKey = Key{App: "Synthetic", Scale: 0.1, Config: "tc16 sys=true pf=true"}

// synthPoint evaluates a known ground-truth model of the simulator's
// form at (n, frac·f_nom): extended-Amdahl time split into compute and
// memory parts, V²-scaled dynamic power with a clocking residual, and a
// constant static-to-dynamic ratio.
func synthPoint(n int, frac float64) Sample {
	em := core.EfficiencyModel{Serial: 0.08, Comm: 0.04}
	fh := frac
	volt := synthNomVolt * (0.6 + 0.4*frac)
	vh := volt / synthNomVolt
	t := em.Slowdown(n) * (0.6/fh + 0.4)
	dyn := 2.0*vh*vh/t + (0.5+0.1*float64(n))*vh*vh*fh
	sta := 0.3 * dyn
	return Sample{
		N: n, Freq: synthNomFreq * frac, Volt: volt,
		Seconds: t, PowerW: dyn + sta, DynW: dyn, StaticW: sta,
	}
}

// synthGrid builds a well-conditioned training set: ns × fracs, with a
// duplicate row per point standing in for a second seed.
func synthGrid(ns []int, fracs []float64) []Sample {
	var out []Sample
	for _, n := range ns {
		for _, fr := range fracs {
			s := synthPoint(n, fr)
			out = append(out, s, s)
		}
	}
	return out
}

func synthFit(t *testing.T, ss []Sample) fitResult {
	t.Helper()
	return fit(synthKey, synthNomFreq, synthNomVolt, ss)
}

// TestFitActivatesOnSyntheticModel: a fixture drawn exactly from the
// model family must activate, with a bound at the floor (the holdout
// residuals are numerically zero) and near-exact predictions.
func TestFitActivatesOnSyntheticModel(t *testing.T) {
	res := synthFit(t, synthGrid([]int{1, 2, 4, 8}, []float64{1.0, 0.75, 0.55}))
	if res.fit == nil {
		t.Fatalf("fit refused: %s", res.reason)
	}
	f := res.fit
	if f.Bound > 0.021 {
		t.Errorf("Bound = %v on an exact-model fixture, want ≈ floorErr 0.02", f.Bound)
	}
	if !reflect.DeepEqual(f.Ns, []int{1, 2, 4, 8}) {
		t.Errorf("Ns = %v, want [1 2 4 8]", f.Ns)
	}
	truth := synthPoint(4, 0.8)
	pred, ok := f.Predict(truth.N, truth.Freq, truth.Volt)
	if !ok {
		t.Fatal("in-region interpolated query refused")
	}
	if e := math.Abs(pred.Seconds-truth.Seconds) / truth.Seconds; e > 1e-6 {
		t.Errorf("seconds err %v on exact model", e)
	}
	if e := math.Abs(pred.PowerW-truth.PowerW) / truth.PowerW; e > 1e-3 {
		t.Errorf("power err %v on exact model", e)
	}
	if pred.EnergyJ != pred.PowerW*pred.Seconds || pred.EDP != pred.EnergyJ*pred.Seconds {
		t.Error("EnergyJ/EDP not derived from Seconds and PowerW")
	}
}

// TestFitDeterministicUnderPermutation: the fit must not depend on
// sample arrival order (scheduling feeds the store concurrently).
func TestFitDeterministicUnderPermutation(t *testing.T) {
	ss := synthGrid([]int{1, 2, 4}, []float64{1.0, 0.7})
	want := synthFit(t, ss)
	if want.fit == nil {
		t.Fatalf("fit refused: %s", want.reason)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		perm := append([]Sample(nil), ss...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got := synthFit(t, perm)
		if got.fit == nil || !reflect.DeepEqual(*got.fit, *want.fit) {
			t.Fatalf("trial %d: permuted fit differs:\n got %+v\nwant %+v", trial, got.fit, want.fit)
		}
	}
}

// TestFitRefusals: degenerate sample geometries must refuse to
// activate rather than extrapolate.
func TestFitRefusals(t *testing.T) {
	grid := synthGrid([]int{1, 2, 4, 8}, []float64{1.0, 0.75, 0.55})
	cases := []struct {
		name   string
		ss     []Sample
		reason string
	}{
		{"empty", nil, "samples"},
		{"single point", []Sample{synthPoint(1, 1.0)}, "samples"},
		{"too few samples", grid[:4], "samples"},
		{"single frequency (collinear)", synthGrid([]int{1, 2, 4, 8}, []float64{1.0}), "distinct frequencies"},
		{"single core count", synthGrid([]int{4}, []float64{1.0, 0.8, 0.6, 0.5}), "distinct core counts"},
		{"two core counts", synthGrid([]int{1, 2}, []float64{1.0, 0.8, 0.6}), "distinct core counts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := synthFit(t, tc.ss)
			if res.fit != nil {
				t.Fatalf("activated on %s", tc.name)
			}
			if !contains(res.reason, tc.reason) {
				t.Errorf("reason = %q, want it to mention %q", res.reason, tc.reason)
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFitRefusesNoisyData: samples far off any model in the family must
// push the held-out bound over budget, not activate with a lying bound.
func TestFitRefusesNoisyData(t *testing.T) {
	ss := synthGrid([]int{1, 2, 4, 8}, []float64{1.0, 0.75, 0.55})
	rng := rand.New(rand.NewSource(3))
	for i := range ss {
		k := 1 + (rng.Float64() - 0.5) // ±50% multiplicative noise
		ss[i].Seconds *= k
	}
	res := synthFit(t, ss)
	if res.fit != nil {
		t.Fatalf("activated on ±50%% noise with bound %v", res.fit.Bound)
	}
	if !contains(res.reason, "bound") {
		t.Errorf("reason = %q, want a bound refusal", res.reason)
	}
}

// TestEpsPinnedAndMonotone: ε(1) = 1 exactly by construction, and the
// fitted efficiency curve is monotone non-increasing (the model family
// guarantees it for s, c ≥ 0, and the grid search never leaves that
// quadrant).
func TestEpsPinnedAndMonotone(t *testing.T) {
	res := synthFit(t, synthGrid([]int{1, 2, 4, 8}, []float64{1.0, 0.75, 0.55}))
	if res.fit == nil {
		t.Fatalf("fit refused: %s", res.reason)
	}
	f := res.fit
	if f.Serial < 0 || f.Comm < 0 {
		t.Fatalf("fitted parameters left the physical quadrant: s=%v c=%v", f.Serial, f.Comm)
	}
	if got := f.Eps(1); got != 1 {
		t.Errorf("Eps(1) = %v, want exactly 1", got)
	}
	prev := f.Eps(1)
	for n := 2; n <= 64; n++ {
		e := f.Eps(n)
		if e > prev+1e-12 {
			t.Fatalf("Eps not monotone: Eps(%d)=%v > Eps(%d)=%v", n, e, n-1, prev)
		}
		if e <= 0 || e > 1 {
			t.Fatalf("Eps(%d) = %v outside (0, 1]", n, e)
		}
		prev = e
	}
}

// TestObserveRejectsInvalidSamples: NaN/Inf and non-positive fields
// must never reach a fit; they are counted and dropped.
func TestObserveRejectsInvalidSamples(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(Options{Registry: reg})
	bad := []Sample{
		{N: 1, Freq: math.NaN(), Volt: 1, Seconds: 1, PowerW: 1, DynW: 0.7, StaticW: 0.3},
		{N: 1, Freq: 1e9, Volt: math.Inf(1), Seconds: 1, PowerW: 1, DynW: 0.7, StaticW: 0.3},
		{N: 1, Freq: 1e9, Volt: 1, Seconds: -1, PowerW: 1, DynW: 0.7, StaticW: 0.3},
		{N: 1, Freq: 1e9, Volt: 1, Seconds: 1, PowerW: 0, DynW: 0.7, StaticW: 0.3},
		{N: 1, Freq: 1e9, Volt: 1, Seconds: 1, PowerW: 1, DynW: math.Inf(-1), StaticW: 0.3},
		{N: 0, Freq: 1e9, Volt: 1, Seconds: 1, PowerW: 1, DynW: 0.7, StaticW: 0.3},
	}
	for _, s := range bad {
		st.Observe(synthKey, synthNomFreq, synthNomVolt, s)
	}
	st.Observe(Key{App: "X", Scale: math.NaN()}, synthNomFreq, synthNomVolt, synthPoint(1, 1))
	if got := reg.VolatileCounter("surrogate_rejected_samples_total").Value(); got != int64(len(bad))+1 {
		t.Errorf("rejected counter = %d, want %d", got, len(bad)+1)
	}
	if got := reg.VolatileCounter("surrogate_samples_total").Value(); got != 0 {
		t.Errorf("samples counter = %d after only invalid observes", got)
	}
	if f := st.FitFor(synthKey); f != nil {
		t.Error("fit active with zero accepted samples")
	}
	if r := st.Reason(synthKey); r != "no samples" {
		t.Errorf("Reason = %q, want \"no samples\"", r)
	}
}

// TestStoreWindowAndGeneration: the sample window is FIFO-bounded and
// each refit bumps the store generation exactly once.
func TestStoreWindowAndGeneration(t *testing.T) {
	st := NewStore(Options{MaxSamples: 8})
	for i := 0; i < 20; i++ {
		st.Observe(synthKey, synthNomFreq, synthNomVolt, synthPoint(1+i%4, 1.0))
	}
	if got := len(st.Samples(synthKey)); got != 8 {
		t.Errorf("window holds %d samples, want 8", got)
	}
	if g := st.Generation(); g != 0 {
		t.Errorf("generation = %d before any fit", g)
	}
	st.FitFor(synthKey)
	if g := st.Generation(); g != 1 {
		t.Errorf("generation = %d after first fit", g)
	}
	st.FitFor(synthKey) // not dirty: no refit
	if g := st.Generation(); g != 1 {
		t.Errorf("generation = %d after clean re-read, want 1", g)
	}
	st.Observe(synthKey, synthNomFreq, synthNomVolt, synthPoint(2, 0.8))
	st.FitFor(synthKey)
	if g := st.Generation(); g != 2 {
		t.Errorf("generation = %d after dirty refit, want 2", g)
	}
}

// TestStoreSelfValidation: once a fit is active, fresh in-region truth
// is scored against it — the abs-err histogram fills and (on an exact
// model) the bound-violation counter stays zero.
func TestStoreSelfValidation(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(Options{Registry: reg})
	for _, s := range synthGrid([]int{1, 2, 4, 8}, []float64{1.0, 0.75, 0.55}) {
		st.Observe(synthKey, synthNomFreq, synthNomVolt, s)
	}
	if st.FitFor(synthKey) == nil {
		t.Fatalf("fit refused: %s", st.Reason(synthKey))
	}
	st.Observe(synthKey, synthNomFreq, synthNomVolt, synthPoint(4, 0.9))
	h := reg.VolatileHistogram("surrogate_abs_err", absErrBounds)
	if h.Count() != 1 {
		t.Errorf("abs-err histogram count = %d, want 1", h.Count())
	}
	if v := reg.VolatileCounter("surrogate_bound_violations_total").Value(); v != 0 {
		t.Errorf("bound violations = %d on an exact model", v)
	}
}

// TestPredictOutOfRegion: untrained core counts and frequencies outside
// the trained span refuse, so the server falls back to simulation.
func TestPredictOutOfRegion(t *testing.T) {
	res := synthFit(t, synthGrid([]int{1, 2, 4}, []float64{1.0, 0.7}))
	if res.fit == nil {
		t.Fatalf("fit refused: %s", res.reason)
	}
	f := res.fit
	if _, ok := f.Predict(8, synthNomFreq, synthNomVolt); ok {
		t.Error("untrained core count answered")
	}
	if _, ok := f.Predict(2, f.MinFreqHz*0.5, synthNomVolt); ok {
		t.Error("frequency below trained span answered")
	}
	if _, ok := f.Predict(2, f.MaxFreqHz*1.5, synthNomVolt); ok {
		t.Error("frequency above trained span answered")
	}
	// The MHz round-trip tolerance must admit the span edge itself.
	if _, ok := f.Predict(2, f.MaxFreqHz+500, synthNomVolt); !ok {
		t.Error("span edge within the Hz tolerance refused")
	}
}

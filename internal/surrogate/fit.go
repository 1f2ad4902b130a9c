package surrogate

import (
	"fmt"
	"math"
	"sort"

	"cmppower/internal/core"
)

// Fit is one activated surrogate: a closed-form time/power model for a
// single (app, scale, rig-config) key, valid inside its confidence
// region. All fields are exported and JSON-tagged so the analyze command
// can pin the fit report as a golden file.
//
// The time model is the paper's analytical form (§2) specialized to the
// simulator's clocking: compute cycles are fixed (seconds ∝ 1/f) while
// memory time is wall-clock constant, so
//
//	T(N, f) = g(N) · (θc/f̂ + θm),   g(N) = 1/(N·ε(N)),  f̂ = f/f_nom
//
// with ε the two-parameter extended-Amdahl efficiency model
// (core.EfficiencyModel: ε(1) = 1 pinned, monotone for s,c ≥ 0). Power
// uses a small physically-motivated linear basis fitted by least squares:
// dynamic energy is work-conserved (P_dyn ∝ v̂²/T), static power follows
// the supply voltage, and a per-active-core clocking term picks up the
// residual N·f dependence.
type Fit struct {
	App    string  `json:"app"`
	Scale  float64 `json:"scale"`
	Config string  `json:"config"`

	NomFreqHz float64 `json:"nom_freq_hz"`
	NomVolt   float64 `json:"nom_volt"`

	// Serial and Comm are the fitted efficiency-model parameters.
	Serial float64 `json:"serial"`
	Comm   float64 `json:"comm"`
	// ThetaC and ThetaM split the nominal single-core run time into its
	// frequency-scaled (compute) and wall-clock (memory) parts, seconds.
	ThetaC float64 `json:"theta_c"`
	ThetaM float64 `json:"theta_m"`
	// PerN are the per-core-count time pairs T(N, f̂) = A/f̂ + B the
	// predictor serves from: the compute/memory split shifts with N (bus
	// and memory contention grow), which the separable global model
	// cannot express, and the confidence region only ever admits trained
	// core counts — so each gets its own exactly-identified pair. The
	// global (Serial, Comm, ThetaC, ThetaM) fit above carries the
	// cross-N structure for reporting and explore-style extrapolation.
	PerN []NPair `json:"per_n"`
	// DynCoef are the least-squares dynamic-power coefficients over
	// dynBasis (truncated when the full basis was singular).
	DynCoef []float64 `json:"dyn_coef"`
	// StaCoef fit the log static-to-dynamic ratio: ln(P_sta/P_dyn) =
	// c0 + c1·V + c2·P_total, the meter's leakage law with total power
	// standing in for die temperature (truncated like DynCoef).
	StaCoef []float64 `json:"sta_coef"`

	// Bound is the advertised maximum relative error for Seconds and
	// PowerW inside the region: safety × the worst held-out residual,
	// floored. Derived quantities compound: energy ≤ (1+b)²-1, EDP ≤
	// (1+b)³-1.
	Bound float64 `json:"bound"`

	// Confidence region: the fitted-domain hull. Ns lists the distinct
	// core counts the training set covered (sorted); frequencies are
	// interpolable inside the trained span.
	Ns        []int   `json:"ns"`
	MinFreqHz float64 `json:"min_freq_hz"`
	MaxFreqHz float64 `json:"max_freq_hz"`

	TrainSamples   int `json:"train_samples"`
	HoldoutSamples int `json:"holdout_samples"`
	// HoldoutErrT/P are the worst held-out relative errors actually
	// observed (the pre-safety inputs to Bound).
	HoldoutErrT float64 `json:"holdout_err_t"`
	HoldoutErrP float64 `json:"holdout_err_p"`
}

// NPair is one core count's fitted point models: run time
// T = A/f̂ + B seconds, and dynamic power P_dyn = E·v̂²/T + F·v̂²·f̂
// watts (event energy over time plus clock-gating residual; for a
// compute-bound count the two regressors collapse into one and F is 0).
type NPair struct {
	N int     `json:"n"`
	A float64 `json:"a"`
	B float64 `json:"b"`
	E float64 `json:"e"`
	F float64 `json:"f"`
}

// Prediction is one surrogate answer.
type Prediction struct {
	Seconds float64 `json:"seconds"`
	PowerW  float64 `json:"power_w"`
	EnergyJ float64 `json:"energy_j"`
	EDP     float64 `json:"edp"`
}

// eff returns the fitted efficiency model.
func (f *Fit) eff() core.EfficiencyModel {
	return core.EfficiencyModel{Serial: f.Serial, Comm: f.Comm}
}

// Eps returns the fitted parallel efficiency at n (ε(1) = 1 by
// construction of the model family).
func (f *Fit) Eps(n int) float64 { return f.eff().Eps(n) }

// InRegion reports whether (n, freqHz) lies inside the confidence
// region: a trained core count and a frequency within the trained span
// (small tolerance for float round-trips through MHz).
func (f *Fit) InRegion(n int, freqHz float64) bool {
	ok := false
	for _, m := range f.Ns {
		if m == n {
			ok = true
			break
		}
	}
	const tol = 1e3 // Hz; requests round-trip through MHz
	return ok && freqHz >= f.MinFreqHz-tol && freqHz <= f.MaxFreqHz+tol
}

// Predict evaluates the surrogate at (n, freqHz, volt). The second
// return is false outside the confidence region — callers must fall back
// to simulation there.
func (f *Fit) Predict(n int, freqHz, volt float64) (Prediction, bool) {
	if !f.InRegion(n, freqHz) {
		return Prediction{}, false
	}
	p := f.predict(n, freqHz, volt)
	if !(p.Seconds > 0) || !(p.PowerW > 0) {
		return Prediction{}, false
	}
	return p, true
}

// modelSeconds evaluates the time model at (n, f̂): the per-N pair when
// n was trained, the global separable model otherwise (explore-style
// extrapolation outside the region).
func (f *Fit) modelSeconds(n int, fh float64) float64 {
	for _, p := range f.PerN {
		if p.N == n {
			return p.A/fh + p.B
		}
	}
	return f.eff().Slowdown(n) * (f.ThetaC/fh + f.ThetaM)
}

// modelDynW evaluates the dynamic-power model at the point, per-N pair
// first like modelSeconds. t is the modeled run time at the point.
func (f *Fit) modelDynW(n int, fh, vh, t float64) float64 {
	for _, p := range f.PerN {
		if p.N == n {
			return p.E*vh*vh/t + p.F*vh*vh*fh
		}
	}
	return dot(f.DynCoef, dynBasis(n, fh, vh, t))
}

// Extrapolate evaluates the model at (n, freqHz, volt) with no region
// gate and no error bound: per-N pairs where the count was trained, the
// global separable model elsewhere. Explore-style pruning uses it to
// rank chip organizations conservatively; it must never be served as an
// answer — outside the region the advertised Bound does not apply.
func (f *Fit) Extrapolate(n int, freqHz, volt float64) Prediction {
	return f.predict(n, freqHz, volt)
}

// predict is Predict without the region gate (the fitter uses it on
// residuals).
func (f *Fit) predict(n int, freqHz, volt float64) Prediction {
	fh := freqHz / f.NomFreqHz
	vh := volt / f.NomVolt
	t := f.modelSeconds(n, fh)
	dyn := f.modelDynW(n, fh, vh, t)
	// Static power couples back into total power through temperature, so
	// the total solves a fixed point: P = P_dyn·(1 + ratio(V, P)). The
	// coupling coefficient is small (leakage raises temperature raises
	// leakage), so plain iteration converges in a few rounds.
	p := dyn
	for i := 0; i < 6; i++ {
		p = dyn * (1 + math.Exp(dot(f.StaCoef, [3]float64{1, volt, p})))
	}
	out := Prediction{Seconds: t, PowerW: p, EnergyJ: p * t}
	out.EDP = out.EnergyJ * t
	return out
}

// dynBasis evaluates the dynamic-power regressors at one point. The
// meter charges V²-scaled energy per event plus a gating residual per
// idle cycle, so dynamic power is exactly a mix of work-over-time
// (v̂²/T: the event energies, fixed per run, spread over the run),
// per-active-core clocking (N·v̂²·f̂: core idle-cycle residuals) and
// chip-wide clocking (v̂²·f̂: L2 banks and bus). t is the modeled run
// time at the point.
func dynBasis(n int, fh, vh, t float64) [3]float64 {
	return [3]float64{vh * vh / t, float64(n) * vh * vh * fh, vh * vh * fh}
}

func dot(c []float64, b [3]float64) float64 {
	s := 0.0
	for i, v := range c {
		s += v * b[i]
	}
	return s
}

// fitResult is the outcome of one fitting attempt: either an active fit
// or a refusal with its reason (surfaced in the analyze report and unit
// tests).
type fitResult struct {
	fit    *Fit
	reason string
}

// The activation rules every fit is held to (DESIGN.md §14).
const (
	// minSamples is the smallest sample set a fit may activate from.
	minSamples = 6
	// minDistinctN / minDistinctFreq are the identifiability floor: the
	// training rows must span at least this many distinct core counts /
	// frequencies. This is what makes single-point and collinear
	// (one-frequency) sets refuse to activate.
	minDistinctN    = 3
	minDistinctFreq = 2
	// safety multiplies the worst held-out residual into the advertised
	// bound.
	safety = 2
	// floorErr is added to the bound so a lucky holdout can never
	// advertise near-zero error.
	floorErr = 0.02
	// maxBound is the activation budget: a fit whose bound exceeds it
	// refuses to serve.
	maxBound = 0.15
)

// fit runs the full pipeline on a sample set: deterministic sort and
// holdout split, joint (s, c, θc, θm) time fit on the training rows,
// linear power fit, held-out residual bound, and the activation rules.
// It never mutates samples.
func fit(key Key, nomFreqHz, nomVolt float64, samples []Sample) fitResult {
	if nomFreqHz <= 0 || nomVolt <= 0 {
		return fitResult{reason: "no nominal operating point"}
	}
	ss := append([]Sample(nil), samples...)
	// Arrival order is scheduling-dependent; the fit must not be. Sort by
	// the full sample value so every permutation fits identically.
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		switch {
		case a.N != b.N:
			return a.N < b.N
		case a.Freq != b.Freq:
			return a.Freq < b.Freq
		case a.Volt != b.Volt:
			return a.Volt < b.Volt
		case a.Seconds != b.Seconds:
			return a.Seconds < b.Seconds
		default:
			return a.PowerW < b.PowerW
		}
	})
	if len(ss) < minSamples {
		return fitResult{reason: fmt.Sprintf("%d samples < %d required", len(ss), minSamples)}
	}
	// Deterministic holdout: every third row of the sorted set. The split
	// interleaves core counts, frequencies and seeds, so the held-out
	// residuals see cross-seed and cross-point generalization.
	var train, hold []Sample
	for i, s := range ss {
		if i%3 == 2 {
			hold = append(hold, s)
		} else {
			train = append(train, s)
		}
	}
	if distinct(train, func(s Sample) float64 { return float64(s.N) }) < minDistinctN {
		return fitResult{reason: fmt.Sprintf("fewer than %d distinct core counts", minDistinctN)}
	}
	if distinct(train, func(s Sample) float64 { return s.Freq }) < minDistinctFreq {
		return fitResult{reason: fmt.Sprintf("fewer than %d distinct frequencies", minDistinctFreq)}
	}

	f := &Fit{
		App: key.App, Scale: key.Scale, Config: key.Config,
		NomFreqHz: nomFreqHz, NomVolt: nomVolt,
	}
	if reason := fitPerN(f, train); reason != "" {
		return fitResult{reason: reason}
	}
	if len(f.Ns) < minDistinctN {
		return fitResult{reason: fmt.Sprintf("only %d identifiable core counts < %d required", len(f.Ns), minDistinctN)}
	}
	// From here on only in-region rows train the global curve and the
	// power model: core counts whose pair was unidentifiable are never
	// served, so they must not distort what is.
	train = withTrainedN(f, train)
	f.TrainSamples = len(train)
	for _, s := range train {
		if f.MinFreqHz == 0 || s.Freq < f.MinFreqHz {
			f.MinFreqHz = s.Freq
		}
		if s.Freq > f.MaxFreqHz {
			f.MaxFreqHz = s.Freq
		}
	}
	if reason := fitTime(f, train); reason != "" {
		return fitResult{reason: reason}
	}
	if reason := fitPower(f, train); reason != "" {
		return fitResult{reason: reason}
	}

	// Held-out residual bound. Only in-region holdout rows count — the
	// region is defined by the training hull, and points outside it are
	// never served. No qualifying holdout row means no error estimate,
	// which means no activation.
	for _, s := range hold {
		if !f.InRegion(s.N, s.Freq) {
			continue
		}
		p := f.predict(s.N, s.Freq, s.Volt)
		f.HoldoutSamples++
		f.HoldoutErrT = math.Max(f.HoldoutErrT, math.Abs(p.Seconds-s.Seconds)/s.Seconds)
		f.HoldoutErrP = math.Max(f.HoldoutErrP, math.Abs(p.PowerW-s.PowerW)/s.PowerW)
	}
	if f.HoldoutSamples == 0 {
		return fitResult{reason: "no in-region holdout samples"}
	}
	f.Bound = safety*math.Max(f.HoldoutErrT, f.HoldoutErrP) + floorErr
	// Written so a NaN bound (a NaN holdout error) is refused too.
	if !(f.Bound <= maxBound) {
		return fitResult{reason: fmt.Sprintf("residual bound %.3f exceeds budget %.3f", f.Bound, maxBound)}
	}
	// The training residuals must respect the bound too: a fit that
	// cannot reproduce its own inputs within the advertised error has no
	// business serving.
	for _, s := range train {
		p := f.predict(s.N, s.Freq, s.Volt)
		if !(p.Seconds > 0) || !(p.PowerW > 0) {
			return fitResult{reason: "non-positive prediction on a training sample"}
		}
		if math.Abs(p.Seconds-s.Seconds)/s.Seconds > f.Bound ||
			math.Abs(p.PowerW-s.PowerW)/s.PowerW > f.Bound {
			return fitResult{reason: "training residual exceeds the advertised bound"}
		}
	}
	return fitResult{fit: f}
}

// distinct counts distinct values of field over samples.
func distinct(ss []Sample, field func(Sample) float64) int {
	seen := map[float64]bool{}
	for _, s := range ss {
		seen[field(s)] = true
	}
	return len(seen)
}

// withTrainedN keeps the samples whose core count earned a per-N pair.
func withTrainedN(f *Fit, ss []Sample) []Sample {
	ok := map[int]bool{}
	for _, p := range f.PerN {
		ok[p.N] = true
	}
	var out []Sample
	for _, s := range ss {
		if ok[s.N] {
			out = append(out, s)
		}
	}
	return out
}

// fitPerN solves each trained core count's (A, B) time pair by 2×2
// least squares over T = A/f̂ + B. A core count is identifiable only
// when its training rows span at least two distinct frequencies — a
// single-frequency (collinear) group cannot split compute from memory
// time and is dropped from the region rather than extrapolated. Pairs
// landing on a negative coefficient are pinned to the physical boundary
// (pure compute or pure memory) and refitted one-parameter.
func fitPerN(f *Fit, train []Sample) string {
	groups := map[int][]Sample{}
	for _, s := range train {
		groups[s.N] = append(groups[s.N], s)
	}
	var ns []int
	for n := range groups {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		g := groups[n]
		if distinct(g, func(s Sample) float64 { return s.Freq }) < 2 {
			continue
		}
		var a11, a12, a22, r1, r2 float64
		for _, s := range g {
			x := f.NomFreqHz / s.Freq // 1/f̂
			a11 += x * x
			a12 += x
			a22++
			r1 += x * s.Seconds
			r2 += s.Seconds
		}
		det := a11*a22 - a12*a12
		if det <= 1e-9*a11*a22 {
			continue
		}
		a := (r1*a22 - r2*a12) / det
		b := (r2*a11 - r1*a12) / det
		if a < 0 {
			a, b = 0, r2/a22
		}
		if b < 0 {
			b, a = 0, r1/a11
		}
		if a+b <= 0 {
			continue
		}
		e, dynF, ok := fitDynPair(f, g, a, b)
		if !ok {
			continue
		}
		f.PerN = append(f.PerN, NPair{N: n, A: a, B: b, E: e, F: dynF})
		f.Ns = append(f.Ns, n)
	}
	if len(f.Ns) == 0 {
		return "no identifiable core counts (every group single-frequency or degenerate)"
	}
	return ""
}

// fitDynPair solves one core-count group's (E, F) dynamic-power pair
// over P_dyn = E·v̂²/T̂ + F·v̂²·f̂, with the same boundary pinning as
// the time pair. For a compute-bound group (B ≈ 0) the regressors are
// collinear and the solve degenerates to the one-term form. Reports
// false when no non-negative pair reproduces the group.
func fitDynPair(f *Fit, g []Sample, a, b float64) (float64, float64, bool) {
	var a11, a12, a22, r1, r2 float64
	for _, s := range g {
		fh := s.Freq / f.NomFreqHz
		vh := s.Volt / f.NomVolt
		x1 := vh * vh / (a/fh + b)
		x2 := vh * vh * fh
		a11 += x1 * x1
		a12 += x1 * x2
		a22 += x2 * x2
		r1 += x1 * s.DynW
		r2 += x2 * s.DynW
	}
	det := a11*a22 - a12*a12
	var e, df float64
	if det > 1e-9*a11*a22 {
		e = (r1*a22 - r2*a12) / det
		df = (r2*a11 - r1*a12) / det
	}
	if e < 0 || det <= 1e-9*a11*a22 {
		e = 0
		if a22 > 0 {
			df = r2 / a22
		}
	}
	if df < 0 {
		df = 0
		if a11 > 0 {
			e = r1 / a11
		}
	}
	if e+df <= 0 {
		return 0, 0, false
	}
	return e, df, true
}

// fitTime fits (Serial, Comm, ThetaC, ThetaM) jointly: a two-stage grid
// search over the efficiency parameters (the same smooth, unimodal
// surface core.FitEfficiency searches) with the optimal (θc, θm) solved
// in closed form by 2×2 least squares at every grid point. Returns a
// refusal reason, or "" on success.
func fitTime(f *Fit, train []Sample) string {
	// The model is T_i = θc·g(N_i)·x_i + θm·g(N_i) with x = f_nom/f, so
	// both the normal equations and the SSE reduce to per-core-count
	// sufficient statistics — the inner solve is then O(distinct N) per
	// grid cell instead of O(rows), which keeps the two-stage search fast
	// enough to refit on the serving path.
	type stat struct {
		n                   int
		sx, sxx, m, st, sxt float64
		stt                 float64
	}
	var stats []stat
	idx := map[int]int{}
	for _, smp := range train {
		i, ok := idx[smp.N]
		if !ok {
			i = len(stats)
			idx[smp.N] = i
			stats = append(stats, stat{n: smp.N})
		}
		x := f.NomFreqHz / smp.Freq
		stats[i].sx += x
		stats[i].sxx += x * x
		stats[i].m++
		stats[i].st += smp.Seconds
		stats[i].sxt += x * smp.Seconds
		stats[i].stt += smp.Seconds * smp.Seconds
	}
	type sol struct {
		tc, tm, sse float64
		ok          bool
	}
	gs := make([]float64, len(stats))
	solve := func(s, c float64) sol {
		em := core.EfficiencyModel{Serial: s, Comm: c}
		var a11, a12, a22, r1, r2 float64
		for i, st := range stats {
			g := em.Slowdown(st.n)
			if math.IsInf(g, 0) {
				return sol{}
			}
			gs[i] = g
			a11 += g * g * st.sxx
			a12 += g * g * st.sx
			a22 += g * g * st.m
			r1 += g * st.sxt
			r2 += g * st.st
		}
		det := a11*a22 - a12*a12
		tc := 0.0
		tm := 0.0
		if det > 1e-9*a11*a22 {
			tc = (r1*a22 - r2*a12) / det
			tm = (r2*a11 - r1*a12) / det
		}
		// Negative splits are unphysical; pin to the boundary (pure
		// compute or pure memory) and refit the surviving parameter. A
		// singular system (every sample at one frequency: columns a and b
		// proportional) lands here too and degenerates to the tc==tm==0
		// case below unless one-parameter fits apply.
		if tc < 0 || det <= 1e-9*a11*a22 {
			tc = 0
			if a22 > 0 {
				tm = r2 / a22
			}
		}
		if tm < 0 {
			tm = 0
			if a11 > 0 {
				tc = r1 / a11
			}
		}
		if tc <= 0 && tm <= 0 {
			return sol{}
		}
		sse := 0.0
		for i, st := range stats {
			g := gs[i]
			sse += tc*tc*g*g*st.sxx + tm*tm*g*g*st.m + 2*tc*tm*g*g*st.sx -
				2*tc*g*st.sxt - 2*tm*g*st.st + st.stt
		}
		return sol{tc: tc, tm: tm, sse: sse, ok: true}
	}
	bestS, bestC := 0.0, 0.0
	best := sol{}
	search := func(sLo, sHi, cLo, cHi float64, steps int) {
		for i := 0; i <= steps; i++ {
			s := sLo + (sHi-sLo)*float64(i)/float64(steps)
			for j := 0; j <= steps; j++ {
				c := cLo + (cHi-cLo)*float64(j)/float64(steps)
				if v := solve(s, c); v.ok && (!best.ok || v.sse < best.sse) {
					best, bestS, bestC = v, s, c
				}
			}
		}
	}
	search(0, 0.5, 0, 0.5, 40)
	if !best.ok {
		return "time model singular (degenerate sample geometry)"
	}
	d := 0.5 / 40
	search(math.Max(0, bestS-d), math.Min(0.5, bestS+d),
		math.Max(0, bestC-d), math.Min(0.5, bestC+d), 40)
	f.Serial, f.Comm, f.ThetaC, f.ThetaM = bestS, bestC, best.tc, best.tm
	// The pure-frequency split needs both components identifiable; a
	// degenerate one-frequency training set collapses to a single term
	// whose f-extrapolation is wrong. The distinct-frequency activation
	// rule already rejects that, but guard the solved values as well.
	if f.ThetaC < 0 || f.ThetaM < 0 || f.ThetaC+f.ThetaM <= 0 {
		return "time model refused: non-positive compute/memory split"
	}
	return ""
}

// fitPower fits the two power components separately on their exact
// physical forms: dynamic power linearly over dynBasis, and the static
// ratio log-linearly in supply voltage and total power (the latter
// standing in for die temperature — the meter's leakage fraction is
// exponential in both). Each fit falls back to truncated bases when the
// full system is singular. Returns a refusal reason, or "" on success.
func fitPower(f *Fit, train []Sample) string {
	rows := make([][3]float64, len(train))
	dyn := make([]float64, len(train))
	for i, s := range train {
		t := f.eff().Slowdown(s.N) * (f.ThetaC/(s.Freq/f.NomFreqHz) + f.ThetaM)
		rows[i] = dynBasis(s.N, s.Freq/f.NomFreqHz, s.Volt/f.NomVolt, t)
		dyn[i] = s.DynW
	}
	f.DynCoef = nil
	for _, k := range []int{3, 2, 1} {
		coef, ok := solveLS(rows, dyn, k)
		if !ok {
			continue
		}
		good := true
		for i := range train {
			if dot(coef, rows[i]) <= 0 {
				good = false
				break
			}
		}
		if good {
			f.DynCoef = coef
			break
		}
	}
	if f.DynCoef == nil {
		return "dynamic-power model singular or non-positive on training samples"
	}
	staRows := make([][3]float64, len(train))
	staY := make([]float64, len(train))
	for i, s := range train {
		staRows[i] = [3]float64{1, s.Volt, s.PowerW}
		staY[i] = math.Log(s.StaticW / s.DynW)
	}
	f.StaCoef = nil
	for _, k := range []int{3, 2, 1} {
		if coef, ok := solveLS(staRows, staY, k); ok {
			f.StaCoef = coef
			break
		}
	}
	if f.StaCoef == nil {
		return "static-ratio model singular"
	}
	return ""
}

// solveLS solves the k-column least-squares system rows·coef ≈ y via
// normal equations and Gaussian elimination with partial pivoting.
func solveLS(rows [][3]float64, y []float64, k int) ([]float64, bool) {
	var ata [3][3]float64
	var atb [3]float64
	for i, r := range rows {
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				ata[a][b] += r[a] * r[b]
			}
			atb[a] += r[a] * y[i]
		}
	}
	// Scale-aware singularity test: compare pivots to the diagonal.
	var diag float64
	for a := 0; a < k; a++ {
		diag = math.Max(diag, ata[a][a])
	}
	if diag <= 0 {
		return nil, false
	}
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(ata[r][col]) > math.Abs(ata[piv][col]) {
				piv = r
			}
		}
		ata[col], ata[piv] = ata[piv], ata[col]
		atb[col], atb[piv] = atb[piv], atb[col]
		if math.Abs(ata[col][col]) < 1e-12*diag {
			return nil, false
		}
		for r := col + 1; r < k; r++ {
			m := ata[r][col] / ata[col][col]
			for c := col; c < k; c++ {
				ata[r][c] -= m * ata[col][c]
			}
			atb[r] -= m * atb[col]
		}
	}
	coef := make([]float64, k)
	for r := k - 1; r >= 0; r-- {
		v := atb[r]
		for c := r + 1; c < k; c++ {
			v -= ata[r][c] * coef[c]
		}
		coef[r] = v / ata[r][r]
	}
	for _, c := range coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, false
		}
	}
	return coef, true
}

// Package thermal implements a HotSpot-style lumped-RC thermal model of a
// chip floorplan.
//
// Every floorplan block becomes one thermal node. Nodes couple laterally to
// abutting blocks through the silicon, vertically through the package to a
// shared heat-sink node, and the sink couples to ambient by a convection
// resistance. The paper uses HotSpot [38] both to drive its analytical
// plots (die temperature feeds back into static power) and to renormalize
// the experimental power model so that the maximum-power point sits at
// 100 °C; this package plays the same two roles here.
package thermal

import (
	"errors"
	"fmt"
	"math"

	"cmppower/internal/check"
	"cmppower/internal/floorplan"
	"cmppower/internal/phys"
)

// Params are the physical constants of the RC network.
type Params struct {
	// KSi is the thermal conductivity of silicon, W/(m·K).
	KSi float64
	// DieThickness is the silicon thickness, m.
	DieThickness float64
	// RVerticalSpecific is the specific junction-to-sink resistance through
	// TIM and spreader, K·m²/W; a block's vertical conductance is
	// area / RVerticalSpecific.
	RVerticalSpecific float64
	// RConvection is the sink-to-ambient convection resistance, K/W.
	RConvection float64
	// AmbientC is the in-box ambient temperature, °C.
	AmbientC float64
	// VolHeatCapacity is the volumetric heat capacity of silicon,
	// J/(m³·K), used by the transient solver.
	VolHeatCapacity float64
	// SinkHeatCapacity is the lumped sink capacity, J/K.
	SinkHeatCapacity float64
	// RInterLayerSpecific is the specific resistance of the bond/TSV
	// interface between stacked dies, K·m²/W: two vertically adjacent
	// blocks couple with conductance overlapArea / RInterLayerSpecific.
	// Only consulted for floorplans with more than one layer; planar
	// chips ignore it entirely.
	RInterLayerSpecific float64
}

// DefaultParams returns package constants representative of a 2005-class
// air-cooled desktop part with the paper's 45 °C in-box ambient.
func DefaultParams() Params {
	return Params{
		KSi:               100,
		DieThickness:      0.5e-3,
		RVerticalSpecific: 4e-5,
		RConvection:       0.25,
		AmbientC:          phys.AmbientTempC,
		VolHeatCapacity:   1.75e6,
		SinkHeatCapacity:  140,
		// Face-to-face bond with TSVs: an order of magnitude below the
		// junction-to-sink path, so stacking couples dies tightly but the
		// buried die still runs measurably hotter (Yavits et al.).
		RInterLayerSpecific: 1e-5,
	}
}

// validate checks the constants for a floorplan of the given layer
// count. Every failure is a *check.Error naming the field.
func (p Params) validate(layers int) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"KSi", p.KSi},
		{"DieThickness", p.DieThickness},
		{"RVerticalSpecific", p.RVerticalSpecific},
		{"RConvection", p.RConvection},
		{"VolHeatCapacity", p.VolHeatCapacity},
		{"SinkHeatCapacity", p.SinkHeatCapacity},
	} {
		if !(f.v > 0 && check.Finite(f.v)) {
			return check.Fail(f.name, f.v, "thermal: %s %g must be finite and positive", f.name, f.v)
		}
	}
	switch {
	case !check.Finite(p.AmbientC):
		return check.Fail("AmbientC", p.AmbientC, "thermal: AmbientC %g must be finite", p.AmbientC)
	case !check.In(p.RInterLayerSpecific, 0, math.MaxFloat64):
		return check.Fail("RInterLayerSpecific", p.RInterLayerSpecific, "thermal: RInterLayerSpecific %g must be finite and non-negative", p.RInterLayerSpecific)
	case layers > 1 && p.RInterLayerSpecific == 0:
		return check.Fail("RInterLayerSpecific", 0, "thermal: %d-layer floorplan needs RInterLayerSpecific > 0", layers)
	}
	return nil
}

// Model is an immutable thermal network for one floorplan. All derived
// structures — the LDLᵀ factorization and the flattened adjacency — are
// built once in NewModel and only read afterwards, so one Model may be
// shared freely across concurrent sweep workers.
type Model struct {
	fp     *floorplan.Floorplan
	params Params
	// gLat[i] lists lateral conductances aligned with neighbors[i].
	neighbors [][]int
	gLat      [][]float64
	gVert     []float64 // block -> sink
	gSum      []float64 // Σ lateral + vertical, per block
	capBlock  []float64 // J/K per block
	// fac is the conductance matrix factored once at construction; every
	// SteadyState call is then a direct triangular solve (see solver.go).
	fac *ldlt
	// csrStart/csrCol/csrLat flatten neighbors/gLat into one CSR array so
	// the transient integrator's flux loop walks contiguous memory instead
	// of chasing per-block slice headers. Entry order within a row matches
	// the nested slices exactly, keeping floating-point sums bit-identical.
	csrStart []int32
	csrCol   []int32
	csrLat   []float64
	// dtStable is TransientStep's explicit-Euler step, precomputed with
	// the same reduction order the per-call code used.
	dtStable float64
	gConv    float64 // 1 / RConvection
}

// NewModel builds the RC network for fp.
func NewModel(fp *floorplan.Floorplan, p Params) (*Model, error) {
	if fp == nil || len(fp.Blocks) == 0 {
		return nil, errors.New("thermal: empty floorplan")
	}
	layers := fp.Layers()
	if err := p.validate(layers); err != nil {
		return nil, err
	}
	adj := fp.BuildAdjacency()
	n := len(fp.Blocks)
	m := &Model{
		fp:        fp,
		params:    p,
		neighbors: adj.Neighbor,
		gLat:      make([][]float64, n),
		gVert:     make([]float64, n),
		gSum:      make([]float64, n),
		capBlock:  make([]float64, n),
	}
	cent := func(b floorplan.Block) (float64, float64) {
		return b.X + b.W/2, b.Y + b.H/2
	}
	for i, b := range fp.Blocks {
		// Only the sink-adjacent die (layer 0) has a vertical path to the
		// heat sink; buried layers shed heat exclusively through the
		// inter-layer bond below.
		if b.Layer == 0 {
			m.gVert[i] = b.Area() / p.RVerticalSpecific
		}
		m.capBlock[i] = b.Area() * p.DieThickness * p.VolHeatCapacity
		m.gLat[i] = make([]float64, len(adj.Neighbor[i]))
		xi, yi := cent(b)
		for k, j := range adj.Neighbor[i] {
			xj, yj := cent(fp.Blocks[j])
			dist := math.Hypot(xi-xj, yi-yj)
			if dist <= 0 {
				dist = 1e-6
			}
			// Cross-section = shared edge × die thickness.
			m.gLat[i][k] = p.KSi * adj.Edge[i][k] * p.DieThickness / dist
		}
	}
	if layers > 1 {
		// Vertical coupling between stacked dies: every pair of blocks on
		// adjacent layers with overlapping footprints gets a conductance
		// proportional to the shared face area, appended symmetrically to
		// the same neighbor/conductance lists the lateral network uses, so
		// the factorization and the transient CSR walk need no 3D special
		// case. Planar chips never enter this block, keeping their derived
		// state bit-identical to the pre-3D model.
		for i, bi := range fp.Blocks {
			for j, bj := range fp.Blocks {
				if d := bj.Layer - bi.Layer; d != 1 && d != -1 {
					continue
				}
				ov := floorplan.OverlapArea(bi, bj)
				if ov <= 0 {
					continue
				}
				m.neighbors[i] = append(m.neighbors[i], j)
				m.gLat[i] = append(m.gLat[i], ov/p.RInterLayerSpecific)
			}
		}
	}
	for i := range fp.Blocks {
		s := m.gVert[i]
		for _, g := range m.gLat[i] {
			s += g
		}
		m.gSum[i] = s
	}
	// The factorization, the CSR walk, and the stable step are shared
	// through a process-wide pool keyed by the exact (floorplan, params)
	// content: every Model built from equal inputs derives bit-identical
	// structures, so re-deriving them per Model was pure waste — every
	// repeated rig build of one chip hits this path (Rig clones share the
	// *Model itself and never get here). See facpool.go; buildDerived
	// keeps the historical reduction orders so pooled and fresh models
	// agree to the last bit.
	d, err := sharedDerived(m)
	if err != nil {
		return nil, err
	}
	m.attach(d)
	m.gConv = 1 / p.RConvection
	return m, nil
}

// attach installs a derived bundle (pooled or freshly built) on m.
func (m *Model) attach(d *derived) {
	m.fac = d.fac
	m.csrStart = d.csrStart
	m.csrCol = d.csrCol
	m.csrLat = d.csrLat
	m.dtStable = d.dtStable
}

// errPoolStep mirrors the historical stable-step failure.
var errPoolStep = errors.New("thermal: cannot choose stable step")

// Floorplan returns the floorplan the model was built from.
func (m *Model) Floorplan() *floorplan.Floorplan { return m.fp }

// Params returns the network constants.
func (m *Model) Params() Params { return m.params }

// NumNodes returns the number of block nodes (excluding the sink).
func (m *Model) NumNodes() int { return len(m.fp.Blocks) }

// SteadyState solves the network for the given per-block power (watts) and
// returns per-block temperatures in °C. Power length must match the
// floorplan block count.
//
// The solve is direct: in steady state every watt leaves through the sink,
// so the sink temperature is known exactly (tSink = totalP · RConvection)
// and the block temperatures satisfy the linear system G·t = P + gVert·tSink
// with G the conductance matrix factored once at NewModel. One triangular
// sweep replaces the reference implementation's thousands of relaxation
// sweeps, and unlike an iterative answer it is exact to rounding.
func (m *Model) SteadyState(powerW []float64) ([]float64, error) {
	n := m.NumNodes()
	if len(powerW) != n {
		return nil, fmt.Errorf("thermal: power vector length %d, want %d", len(powerW), n)
	}
	var totalP float64
	for _, p := range powerW {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("thermal: invalid block power %g", p)
		}
		totalP += p
	}
	amb := m.params.AmbientC
	tSink := totalP * m.params.RConvection
	out := make([]float64, n)
	for i := range out {
		out[i] = powerW[i] + m.gVert[i]*tSink
	}
	m.fac.solve(out)
	for i := range out {
		out[i] += amb
	}
	return out, nil
}

// SteadyStateReference is the original Gauss-Seidel relaxation solver,
// kept as the independent reference the factored SteadyState is tested
// against (the two must agree within a micro-kelvin; see solver tests).
// It is deliberately untouched by the fast path and should only be used
// for validation — it is orders of magnitude slower.
func (m *Model) SteadyStateReference(powerW []float64) ([]float64, error) {
	n := m.NumNodes()
	if len(powerW) != n {
		return nil, fmt.Errorf("thermal: power vector length %d, want %d", len(powerW), n)
	}
	var totalP float64
	for _, p := range powerW {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("thermal: invalid block power %g", p)
		}
		totalP += p
	}
	amb := m.params.AmbientC
	// Temperatures relative to ambient, Gauss-Seidel over the blocks.
	t := make([]float64, n)
	tSink := totalP * m.params.RConvection
	for iter := 0; iter < 20000; iter++ {
		var maxDelta float64
		for i := 0; i < n; i++ {
			acc := powerW[i] + m.gVert[i]*tSink
			for k, j := range m.neighbors[i] {
				acc += m.gLat[i][k] * t[j]
			}
			nt := acc / m.gSum[i]
			if d := math.Abs(nt - t[i]); d > maxDelta {
				maxDelta = d
			}
			t[i] = nt
		}
		if maxDelta < 1e-9 {
			break
		}
	}
	out := make([]float64, n)
	for i := range t {
		out[i] = amb + t[i]
	}
	return out, nil
}

// TransientState carries the full thermal state between TransientStep
// calls: per-block temperatures and the heat-sink temperature, in °C. The
// sink's time constant (seconds) is far longer than the die's
// (milliseconds), so chained stepping must preserve it.
type TransientState struct {
	Block []float64
	SinkC float64
	// t and next are the integrator's scratch vectors, allocated on first
	// use and reused across calls: DTM interval replay steps the same
	// state thousands of times, and the scratch is what kept showing up
	// as per-interval garbage. States built as plain literals (Block set
	// by hand) work too — the scratch is sized lazily.
	t, next []float64
}

// NewTransientState returns a state with every node at the ambient
// temperature.
func (m *Model) NewTransientState() *TransientState {
	st := &TransientState{
		Block: make([]float64, m.NumNodes()),
		SinkC: m.params.AmbientC,
	}
	for i := range st.Block {
		st.Block[i] = m.params.AmbientC
	}
	return st
}

// maxSubsteps bounds the explicit-Euler substeps of one TransientStep
// call. The stable step is 0.70 ms on the 16-core chip and 45.6 µs on a
// 256-core one, so the bound admits about 730 s and 48 s of model time
// per call, against about 10 ms for a default DTM interval (5 µs of run
// dilated 2000 times).
const maxSubsteps = 1 << 20

// TransientStep advances st in place under constant power for the given
// duration, by explicit-Euler substeps no longer than the network's
// stable step. It refuses, with a *check.Error on "duration", a NaN or
// negative duration and one that needs more than maxSubsteps (2^20)
// substeps, which would run for minutes or never end.
func (m *Model) TransientStep(st *TransientState, powerW []float64, duration float64) error {
	n := m.NumNodes()
	if len(st.Block) != n || len(powerW) != n {
		return fmt.Errorf("thermal: vector lengths state=%d power=%d, want %d", len(st.Block), len(powerW), n)
	}
	if !check.In(duration, 0, maxSubsteps*m.dtStable) {
		return check.Fail("duration", duration, "thermal: duration %g s outside [0, %g s], %d stable steps of %g s",
			duration, maxSubsteps*m.dtStable, maxSubsteps, m.dtStable)
	}
	amb := m.params.AmbientC
	if len(st.t) != n {
		st.t = make([]float64, n)
		st.next = make([]float64, n)
	}
	t, next := st.t, st.next
	for i := range t {
		t[i] = st.Block[i] - amb
	}
	// The stable step and 1/RConvection are precomputed in NewModel (same
	// values as the historical per-call computation, to the last bit).
	dt := m.dtStable
	gConv := m.gConv
	tSink := st.SinkC - amb
	for elapsed := 0.0; elapsed < duration; elapsed += dt {
		step := math.Min(dt, duration-elapsed)
		var intoSink float64
		for i := 0; i < n; i++ {
			ti := t[i]
			flux := powerW[i] + m.gVert[i]*(tSink-ti)
			for p := m.csrStart[i]; p < m.csrStart[i+1]; p++ {
				flux += m.csrLat[p] * (t[m.csrCol[p]] - ti)
			}
			next[i] = ti + step*flux/m.capBlock[i]
			intoSink += m.gVert[i] * (ti - tSink)
		}
		tSink += step * (intoSink - gConv*tSink) / m.params.SinkHeatCapacity
		t, next = next, t
	}
	for i := range t {
		st.Block[i] = amb + t[i]
	}
	st.SinkC = amb + tSink
	st.t, st.next = t, next
	return nil
}

// SensorReader models an on-die temperature sensor bank: it maps a block's
// true model temperature to the reading a thermal-management controller
// observes. Fault injectors implement it (stuck or noisy sensors); nil
// means ideal sensors. See internal/faults for the canonical injector.
type SensorReader interface {
	ReadSensor(block int, trueC float64) float64
}

// Sense reads every block temperature through r and returns the observed
// readings; a nil reader is an ideal sensor bank (readings == temps).
func Sense(temps []float64, r SensorReader) []float64 {
	out := make([]float64, len(temps))
	if r == nil {
		copy(out, temps)
		return out
	}
	for i, t := range temps {
		out[i] = r.ReadSensor(i, t)
	}
	return out
}

// Peak returns the maximum of temps.
func Peak(temps []float64) float64 {
	p := math.Inf(-1)
	for _, t := range temps {
		if t > p {
			p = t
		}
	}
	return p
}

// AvgWeighted returns the area-weighted average temperature over the blocks
// selected by include (all blocks when include is nil). The paper reports
// chip average temperature excluding the L2 (paper §3.3); pass a filter for
// that.
func (m *Model) AvgWeighted(temps []float64, include func(floorplan.Block) bool) float64 {
	var sum, area float64
	for i, b := range m.fp.Blocks {
		if include != nil && !include(b) {
			continue
		}
		sum += temps[i] * b.Area()
		area += b.Area()
	}
	if area == 0 {
		return m.params.AmbientC
	}
	return sum / area
}

// ActiveCores is an AvgWeighted filter selecting blocks of cores < n,
// for configurations where unused cores are shut down.
func ActiveCores(n int) func(floorplan.Block) bool {
	return func(b floorplan.Block) bool {
		return b.Core >= 0 && b.Core < n
	}
}

// SteadyStateCoupled solves the leakage↔temperature fixed point: dynPower
// is the per-block dynamic power, and leak returns each block's static
// power at a given temperature. Iterates steady-state solves until
// temperatures move less than tol °C. Returns temperatures and the total
// per-block power (dynamic+static) at the fixed point.
func (m *Model) SteadyStateCoupled(dynPower []float64, leak func(block int, tempC float64) float64, tol float64) (temps, total []float64, err error) {
	n := m.NumNodes()
	if len(dynPower) != n {
		return nil, nil, fmt.Errorf("thermal: dynPower length %d, want %d", len(dynPower), n)
	}
	if tol <= 0 {
		tol = 0.01
	}
	temps = make([]float64, n)
	for i := range temps {
		temps[i] = m.params.AmbientC
	}
	total = make([]float64, n)
	for iter := 0; iter < 100; iter++ {
		for i := 0; i < n; i++ {
			total[i] = dynPower[i] + leak(i, temps[i])
		}
		nt, serr := m.SteadyState(total)
		if serr != nil {
			return nil, nil, serr
		}
		var maxDelta float64
		for i := range nt {
			if d := math.Abs(nt[i] - temps[i]); d > maxDelta {
				maxDelta = d
			}
		}
		temps = nt
		if maxDelta < tol {
			return temps, total, nil
		}
	}
	return nil, nil, errors.New("thermal: leakage fixed point did not converge (thermal runaway?)")
}

// PowerForPeak finds the scale s such that distributing s·shape watts over
// the blocks yields the requested peak temperature; this implements the
// paper's renormalization step ("maximum operational power ... yields the
// maximum operating temperature of 100 °C", §3.3). shape need not be
// normalized. Returns the scaled power vector and s.
func (m *Model) PowerForPeak(shape []float64, peakC float64) ([]float64, float64, error) {
	n := m.NumNodes()
	if len(shape) != n {
		return nil, 0, fmt.Errorf("thermal: shape length %d, want %d", len(shape), n)
	}
	var sum float64
	for _, x := range shape {
		if x < 0 {
			return nil, 0, errors.New("thermal: negative shape entry")
		}
		sum += x
	}
	if sum == 0 {
		return nil, 0, errors.New("thermal: zero shape")
	}
	if peakC <= m.params.AmbientC {
		return nil, 0, fmt.Errorf("thermal: peak %g °C not above ambient %g °C", peakC, m.params.AmbientC)
	}
	// The network is linear: peak rise is proportional to scale.
	probe := make([]float64, n)
	for i := range shape {
		probe[i] = shape[i] / sum // 1 W total
	}
	temps, err := m.SteadyState(probe)
	if err != nil {
		return nil, 0, err
	}
	risePerWatt := Peak(temps) - m.params.AmbientC
	if risePerWatt <= 0 {
		return nil, 0, errors.New("thermal: degenerate network (no rise)")
	}
	s := (peakC - m.params.AmbientC) / risePerWatt
	out := make([]float64, n)
	for i := range probe {
		out[i] = probe[i] * s
	}
	return out, s, nil
}

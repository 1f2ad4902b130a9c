package thermal

import (
	"errors"
	"math"
	"testing"

	"cmppower/internal/check"
	"cmppower/internal/floorplan"
	"cmppower/internal/phys"
)

func chip16(t *testing.T) *floorplan.Floorplan {
	t.Helper()
	fp, err := floorplan.Chip(floorplan.DefaultChipConfig(16))
	if err != nil {
		t.Fatalf("Chip: %v", err)
	}
	return fp
}

func model16(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(chip16(t), DefaultParams())
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

func TestNewModelRejectsBadInput(t *testing.T) {
	if _, err := NewModel(nil, DefaultParams()); err == nil {
		t.Error("accepted nil floorplan")
	}
	if _, err := NewModel(&floorplan.Floorplan{}, DefaultParams()); err == nil {
		t.Error("accepted empty floorplan")
	}
	p := DefaultParams()
	p.KSi = 0
	if _, err := NewModel(chip16(t), p); err == nil {
		t.Error("accepted zero conductivity")
	}
	p = DefaultParams()
	p.RConvection = -1
	if _, err := NewModel(chip16(t), p); err == nil {
		t.Error("accepted negative convection resistance")
	}
	cfg := floorplan.DefaultChipConfig(16)
	cfg.Layers = 2
	stacked, err := floorplan.Chip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p = DefaultParams()
	p.RInterLayerSpecific = 0
	var ce *check.Error
	if _, err := NewModel(stacked, p); !errors.As(err, &ce) || ce.Field != "RInterLayerSpecific" {
		t.Errorf("2-layer chip without an interface resistance: got %v, want a *check.Error on RInterLayerSpecific", err)
	}
	if _, err := NewModel(chip16(t), p); err != nil {
		t.Errorf("planar chip refused a zero interface resistance: %v", err)
	}
	// Every float parameter refuses NaN and both infinities with a
	// *check.Error naming it. NaN KSi used to build a model whose steady
	// state was all NaN, and +Inf RConvection a model with no convection
	// path.
	fields := []struct {
		name string
		ptr  func(*Params) *float64
	}{
		{"KSi", func(p *Params) *float64 { return &p.KSi }},
		{"DieThickness", func(p *Params) *float64 { return &p.DieThickness }},
		{"RVerticalSpecific", func(p *Params) *float64 { return &p.RVerticalSpecific }},
		{"RConvection", func(p *Params) *float64 { return &p.RConvection }},
		{"AmbientC", func(p *Params) *float64 { return &p.AmbientC }},
		{"VolHeatCapacity", func(p *Params) *float64 { return &p.VolHeatCapacity }},
		{"SinkHeatCapacity", func(p *Params) *float64 { return &p.SinkHeatCapacity }},
		{"RInterLayerSpecific", func(p *Params) *float64 { return &p.RInterLayerSpecific }},
	}
	fp := chip16(t)
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := DefaultParams()
			*f.ptr(&p) = v
			var ce *check.Error
			if _, err := NewModel(fp, p); !errors.As(err, &ce) || ce.Field != f.name {
				t.Errorf("%s = %g: got %v, want a *check.Error on %s", f.name, v, err, f.name)
			}
		}
	}
}

func TestSteadyStateZeroPowerIsAmbient(t *testing.T) {
	m := model16(t)
	temps, err := m.SteadyState(make([]float64, m.NumNodes()))
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	for i, tc := range temps {
		if math.Abs(tc-phys.AmbientTempC) > 1e-6 {
			t.Fatalf("block %d at %g °C, want ambient", i, tc)
		}
	}
}

func TestSteadyStateValidation(t *testing.T) {
	m := model16(t)
	if _, err := m.SteadyState(make([]float64, 3)); err == nil {
		t.Error("accepted wrong-length power vector")
	}
	bad := make([]float64, m.NumNodes())
	bad[0] = -1
	if _, err := m.SteadyState(bad); err == nil {
		t.Error("accepted negative power")
	}
	bad[0] = math.NaN()
	if _, err := m.SteadyState(bad); err == nil {
		t.Error("accepted NaN power")
	}
}

func TestSteadyStateHotBlockIsHottest(t *testing.T) {
	m := model16(t)
	fp := m.Floorplan()
	p := make([]float64, m.NumNodes())
	hot := fp.Index("core5.ialu")
	if hot < 0 {
		t.Fatal("core5.ialu not found")
	}
	p[hot] = 10
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	peak := Peak(temps)
	if temps[hot] != peak {
		t.Errorf("powered block at %g °C, peak is %g °C elsewhere", temps[hot], peak)
	}
	if peak <= phys.AmbientTempC {
		t.Errorf("peak %g °C not above ambient", peak)
	}
	// A far-away L2 bank should be much cooler than the hot block.
	far := fp.Index("l2.bank0")
	if temps[far] >= temps[hot] {
		t.Errorf("far block %g °C >= hot block %g °C", temps[far], temps[hot])
	}
}

func TestSteadyStateLinearInPower(t *testing.T) {
	m := model16(t)
	p1 := make([]float64, m.NumNodes())
	for i := range p1 {
		p1[i] = 0.05
	}
	p2 := make([]float64, m.NumNodes())
	for i := range p2 {
		p2[i] = 0.10
	}
	t1, err := m.SteadyState(p1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m.SteadyState(p2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1 {
		r1 := t1[i] - phys.AmbientTempC
		r2 := t2[i] - phys.AmbientTempC
		if math.Abs(r2-2*r1) > 1e-4*(1+math.Abs(r2)) {
			t.Fatalf("block %d: rise not linear: %g vs 2×%g", i, r2, r1)
		}
	}
}

func TestMoreSpreadPowerLowerPeak(t *testing.T) {
	// Same total power concentrated in one core vs spread over 16 cores:
	// the spread case must have a lower peak. This is the physical heart of
	// the paper's power-density result (Fig. 3, fourth panel).
	m := model16(t)
	fp := m.Floorplan()
	total := 20.0

	concentrated := make([]float64, m.NumNodes())
	one := fp.CoreBlocks(0)
	for _, i := range one {
		concentrated[i] = total / float64(len(one))
	}
	spread := make([]float64, m.NumNodes())
	var coreIdx []int
	for c := 0; c < 16; c++ {
		coreIdx = append(coreIdx, fp.CoreBlocks(c)...)
	}
	for _, i := range coreIdx {
		spread[i] = total / float64(len(coreIdx))
	}
	tc, err := m.SteadyState(concentrated)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := m.SteadyState(spread)
	if err != nil {
		t.Fatal(err)
	}
	if Peak(ts) >= Peak(tc) {
		t.Errorf("spread peak %g °C >= concentrated peak %g °C", Peak(ts), Peak(tc))
	}
}

func TestAvgWeightedFilters(t *testing.T) {
	m := model16(t)
	fp := m.Floorplan()
	p := make([]float64, m.NumNodes())
	for c := 0; c < 16; c++ {
		for _, i := range fp.CoreBlocks(c) {
			p[i] = 0.5
		}
	}
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	all := m.AvgWeighted(temps, nil)
	// The paper's convention (§3.3): the L2 and the bus strip are left out
	// of temperature statistics.
	coresOnly := m.AvgWeighted(temps, func(b floorplan.Block) bool {
		return b.Unit != floorplan.UnitL2 && b.Unit != floorplan.UnitBus
	})
	if coresOnly <= all {
		t.Errorf("core-only average %g should exceed whole-die average %g (cold L2)", coresOnly, all)
	}
	active4 := m.AvgWeighted(temps, ActiveCores(4))
	if active4 <= phys.AmbientTempC {
		t.Errorf("active-cores average %g not above ambient", active4)
	}
	// Empty filter falls back to ambient.
	none := m.AvgWeighted(temps, func(floorplan.Block) bool { return false })
	if none != DefaultParams().AmbientC {
		t.Errorf("empty filter average = %g, want ambient", none)
	}
}

func TestPowerForPeakHitsTarget(t *testing.T) {
	m := model16(t)
	fp := m.Floorplan()
	shape := make([]float64, m.NumNodes())
	for _, i := range fp.CoreBlocks(0) {
		shape[i] = 1
	}
	p, scale, err := m.PowerForPeak(shape, phys.MaxDieTempC)
	if err != nil {
		t.Fatalf("PowerForPeak: %v", err)
	}
	if scale <= 0 {
		t.Fatalf("scale = %g", scale)
	}
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := Peak(temps); math.Abs(got-phys.MaxDieTempC) > 0.1 {
		t.Errorf("peak %g °C, want %g °C", got, phys.MaxDieTempC)
	}
}

func TestPowerForPeakValidation(t *testing.T) {
	m := model16(t)
	if _, _, err := m.PowerForPeak(make([]float64, 3), 100); err == nil {
		t.Error("accepted wrong-length shape")
	}
	if _, _, err := m.PowerForPeak(make([]float64, m.NumNodes()), 100); err == nil {
		t.Error("accepted all-zero shape")
	}
	bad := make([]float64, m.NumNodes())
	bad[0] = -1
	if _, _, err := m.PowerForPeak(bad, 100); err == nil {
		t.Error("accepted negative shape")
	}
	ok := make([]float64, m.NumNodes())
	ok[0] = 1
	if _, _, err := m.PowerForPeak(ok, 20); err == nil {
		t.Error("accepted peak below ambient")
	}
}

func TestSteadyStateCoupledConverges(t *testing.T) {
	m := model16(t)
	fp := m.Floorplan()
	dyn := make([]float64, m.NumNodes())
	for _, i := range fp.CoreBlocks(0) {
		dyn[i] = 1.0
	}
	tech := phys.Tech65()
	leak := func(block int, tempC float64) float64 {
		b := fp.Blocks[block]
		if b.Core != 0 {
			return 0
		}
		return 0.2 * tech.LeakMultiplier(tech.Vdd, tempC) / tech.LeakMultiplier(tech.Vdd, phys.MaxDieTempC)
	}
	temps, total, err := m.SteadyStateCoupled(dyn, leak, 0.01)
	if err != nil {
		t.Fatalf("SteadyStateCoupled: %v", err)
	}
	var dynSum, totSum float64
	for i := range dyn {
		dynSum += dyn[i]
		totSum += total[i]
	}
	if totSum <= dynSum {
		t.Errorf("total power %g should exceed dynamic %g (leakage added)", totSum, dynSum)
	}
	if Peak(temps) <= phys.AmbientTempC {
		t.Error("no temperature rise with nonzero power")
	}
}

func TestSteadyStateCoupledValidation(t *testing.T) {
	m := model16(t)
	_, _, err := m.SteadyStateCoupled(make([]float64, 2), func(int, float64) float64 { return 0 }, 0.01)
	if err == nil {
		t.Error("accepted wrong-length dynamic power")
	}
}

func TestTransientApproachesSteadyState(t *testing.T) {
	m := model16(t)
	fp := m.Floorplan()
	p := make([]float64, m.NumNodes())
	for _, i := range fp.CoreBlocks(2) {
		p[i] = 1.5
	}
	ss, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	// After a long settle the transient solution must be close to steady
	// state for the die nodes (the sink settles much more slowly; a couple
	// of °C tolerance absorbs that).
	st := m.NewTransientState()
	if err := m.TransientStep(st, p, 200); err != nil {
		t.Fatalf("TransientStep: %v", err)
	}
	for i := range ss {
		if math.Abs(st.Block[i]-ss[i]) > 2.0 {
			t.Fatalf("block %d: transient %g vs steady %g", i, st.Block[i], ss[i])
		}
	}
}

func TestTransientShortRunBarelyMoves(t *testing.T) {
	m := model16(t)
	p := make([]float64, m.NumNodes())
	p[0] = 100
	st := m.NewTransientState()
	if err := m.TransientStep(st, p, 1e-7); err != nil {
		t.Fatal(err)
	}
	if st.Block[0]-phys.AmbientTempC > 5 {
		t.Errorf("100 ns heated block by %g °C; thermal time constants should be ms-scale", st.Block[0]-phys.AmbientTempC)
	}
}

func TestTransientValidation(t *testing.T) {
	m := model16(t)
	good := make([]float64, m.NumNodes())
	if err := m.TransientStep(&TransientState{Block: good[:2]}, good, 1); err == nil {
		t.Error("accepted short state")
	}
	if err := m.TransientStep(m.NewTransientState(), good[:2], 1); err == nil {
		t.Error("accepted short power")
	}
	// An infinite duration used to spin the substep loop forever, and a
	// huge finite one ran for ~duration/dtStable substeps; NaN used to
	// return at once with the state unchanged.
	limit := maxSubsteps * m.dtStable
	for _, d := range []float64{-1, math.Inf(-1), math.Inf(1), math.NaN(), 1e300, math.Nextafter(limit, math.Inf(1))} {
		st := m.NewTransientState()
		var ce *check.Error
		if err := m.TransientStep(st, good, d); !errors.As(err, &ce) || ce.Field != "duration" {
			t.Errorf("duration %g: got %v, want a *check.Error on duration", d, err)
		}
	}
	if limit < 700 {
		t.Errorf("16-core substep bound admits only %g s per call", limit)
	}
}

func TestPeakOfEmpty(t *testing.T) {
	if !math.IsInf(Peak(nil), -1) {
		t.Error("Peak(nil) should be -Inf")
	}
}

func TestSteadyStateSymmetry(t *testing.T) {
	// Two cores placed symmetrically on the die with equal power must land
	// at (nearly) the same temperature: the solver must not break the
	// floorplan's symmetry.
	m := model16(t)
	fp := m.Floorplan()
	p := make([]float64, m.NumNodes())
	// Cores 0 and 3 are mirror images on the 4x4 grid's bottom row.
	for _, i := range fp.CoreBlocks(0) {
		p[i] = 1.5
	}
	for _, i := range fp.CoreBlocks(3) {
		p[i] = 1.5
	}
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	a := m.AvgWeighted(temps, func(b floorplan.Block) bool { return b.Core == 0 })
	bavg := m.AvgWeighted(temps, func(b floorplan.Block) bool { return b.Core == 3 })
	// The tiles are translations (not mirror images) of an internally
	// asymmetric core layout, so the match is approximate: within ~5 % of
	// the common temperature rise.
	rise := math.Max(a, bavg) - phys.AmbientTempC
	if math.Abs(a-bavg) > 0.05*rise {
		t.Errorf("equivalent cores differ: %g vs %g °C", a, bavg)
	}
}

func TestTransientStepCarriesSinkState(t *testing.T) {
	// Chained TransientStep calls must heat the sink monotonically under
	// constant power: the state carries the sink between calls.
	m := model16(t)
	p := make([]float64, m.NumNodes())
	for _, i := range m.Floorplan().CoreBlocks(0) {
		p[i] = 2
	}
	st := m.NewTransientState()
	prevSink := st.SinkC
	for i := 0; i < 5; i++ {
		if err := m.TransientStep(st, p, 2.0); err != nil {
			t.Fatal(err)
		}
		if st.SinkC < prevSink-1e-9 {
			t.Fatalf("sink cooled under constant power at step %d", i)
		}
		prevSink = st.SinkC
	}
	if st.SinkC <= phys.AmbientTempC {
		t.Error("sink never warmed")
	}
}

func TestSteadyStateConservesEnergy(t *testing.T) {
	// In steady state every watt injected into the die must flow into the
	// sink: Σ gVert·(T_block − T_sink) == total power, with
	// T_sink = ambient + P·Rconv.
	m := model16(t)
	fp := m.Floorplan()
	p := make([]float64, m.NumNodes())
	var total float64
	for c := 0; c < 16; c += 3 {
		for _, i := range fp.CoreBlocks(c) {
			p[i] = 0.7
			total += 0.7
		}
	}
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	tSink := m.Params().AmbientC + total*m.Params().RConvection
	var intoSink float64
	for i := range temps {
		intoSink += m.gVert[i] * (temps[i] - tSink)
	}
	if math.Abs(intoSink-total) > 1e-6*total {
		t.Errorf("energy not conserved: %g W into sink vs %g W injected", intoSink, total)
	}
}

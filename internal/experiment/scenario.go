package experiment

import (
	"fmt"

	"cmppower/internal/cpu"
	"cmppower/internal/dvfs"
	"cmppower/internal/floorplan"
	"cmppower/internal/phys"
	"cmppower/internal/power"
	"cmppower/internal/scenario"
	"cmppower/internal/thermal"
)

// NewRigFromScenario builds and calibrates the apparatus described by a
// declarative scenario (see internal/scenario): technology node, die
// geometry and 3D stacking, DVFS ladder and domains, core mix, thermal
// constants, memory switches. A nil scenario (and the baseline scenario)
// produces the paper's Table 1 apparatus; the baseline case is
// bit-identical to NewCustomRig because every scenario→config conversion
// below is exact at the defaults (200 MHz steps and 15.6 mm dies convert
// to hertz and meters without rounding), pinned by doctor check 15.
func NewRigFromScenario(sc *scenario.Scenario, scale float64) (*Rig, error) {
	if sc == nil {
		return NewRig(scale)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("experiment: non-positive scale %g", scale)
	}
	sc = sc.Clone()
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	digest, err := sc.Digest()
	if err != nil {
		return nil, err
	}
	baseline, err := sc.IsBaseline()
	if err != nil {
		return nil, err
	}
	tech := sc.Technology()
	tab, err := dvfs.NewTable(tech, sc.DVFS.LadderMinMHz*1e6, tech.FNominal, sc.DVFS.LadderStepMHz*1e6)
	if err != nil {
		return nil, err
	}
	fp, err := floorplan.Chip(floorplan.ChipConfig{
		NCores:  sc.Chip.TotalCores,
		DieW:    sc.Chip.DieWMm * 1e-3,
		DieH:    sc.Chip.DieHMm * 1e-3,
		L2Banks: sc.Chip.L2Banks,
		Layers:  sc.Chip.Layers,
	})
	if err != nil {
		return nil, err
	}
	params := thermal.DefaultParams()
	if sc.Thermal.RInterLayer > 0 {
		params.RInterLayerSpecific = sc.Thermal.RInterLayer
	}
	tm, err := thermal.NewModel(fp, params)
	if err != nil {
		return nil, err
	}
	meter, err := power.NewMeter(tech)
	if err != nil {
		return nil, err
	}
	cal, err := meter.Calibrate(fp, tm, tab.Nominal())
	if err != nil {
		return nil, err
	}
	r := &Rig{
		Tech: tech, Table: tab, FP: fp, TM: tm, Meter: meter, Cal: cal,
		TotalCores: sc.Chip.TotalCores, Scale: scale, Seed: 1,
		ScaleMemoryWithChip: sc.Memory.ScaleWithChip,
		Prefetch:            sc.Memory.Prefetch,
		QuantizeLadder:      sc.DVFS.Quantize,
		Scenario:            sc,
	}
	if !baseline {
		// Baseline-equivalent scenarios keep the empty digest so their
		// runs share every cache (memo, surrogate, server responses) with
		// flag-era runs; any other chip gets its content digest and can
		// never collide with a different chip's entries.
		r.scenarioDigest = digest
	}
	if len(sc.DVFS.Domains) > 0 {
		doms := make([]dvfs.Domain, len(sc.DVFS.Domains))
		for i, d := range sc.DVFS.Domains {
			doms[i] = dvfs.Domain{
				Name:       d.Name,
				Cores:      append([]int(nil), d.Cores...),
				SpeedRatio: d.SpeedRatio,
			}
		}
		ds, err := dvfs.NewDomainSet(sc.Chip.TotalCores, doms)
		if err != nil {
			return nil, err
		}
		r.Domains = ds
	}
	return r, nil
}

// ScenarioDigest returns the rig's scenario cache identity: empty for
// flag-era rigs and for scenarios canonically equal to the baseline
// chip, the full sha256 hex digest otherwise. It is folded into memo
// keys, surrogate keys, and the server's rig pool.
func (r *Rig) ScenarioDigest() string { return r.scenarioDigest }

// ScenarioName returns the attached scenario's name ("" for flag-era
// rigs). Manifests record it next to the digest.
func (r *Rig) ScenarioName() string {
	if r.Scenario == nil {
		return ""
	}
	return r.Scenario.Name
}

// perCoreConfigs expands the run's base core config into per-core
// configs when the scenario makes cores differ — DVFS-domain speed
// ratios and big/little class overrides — and returns nil for
// homogeneous chips so the legacy uniform path is untouched.
func (r *Rig) perCoreConfigs(base cpu.Config, n int) []cpu.Config {
	if r.Scenario == nil {
		return nil
	}
	hetero := false
	per := make([]cpu.Config, n)
	for c := range per {
		per[c] = r.chipCore(base, c)
		if per[c] != base {
			hetero = true
		}
	}
	if !hetero {
		return nil
	}
	return per
}

// chipCore applies the chip's per-core deltas to a configuration running
// on physical core c: its big/little class overrides and its DVFS
// island's speed ratio.
func (r *Rig) chipCore(cc cpu.Config, c int) cpu.Config {
	if r.Scenario != nil {
		if cl := r.Scenario.ClassOf(c); cl != nil {
			if cl.IssueWidth > 0 {
				cc.IssueWidth = cl.IssueWidth
			}
			if s := cl.IPCScale; s != 0 && s != 1 {
				cc.IPCNonMem *= s
			}
			// A narrow core caps the app's dependence-limited IPC at its
			// own width.
			if cc.IPCNonMem > float64(cc.IssueWidth) {
				cc.IPCNonMem = float64(cc.IssueWidth)
			}
		}
	}
	if r.Domains != nil {
		if ratio := r.Domains.RatioOf(c); ratio != 1 {
			cc.SpeedRatio = ratio
		}
	}
	return cc
}

// corePoints returns every physical core's operating point while the
// chip runs at lead: its DVFS island's point, or lead itself on a chip
// without islands.
func (r *Rig) corePoints(lead dvfs.OperatingPoint) []dvfs.OperatingPoint {
	if r.Domains != nil {
		return r.Domains.CorePoints(r.Table, lead)
	}
	pts := make([]dvfs.OperatingPoint, r.TotalCores)
	for i := range pts {
		pts[i] = lead
	}
	return pts
}

// activeCores marks the first n of the chip's cores powered, the rest
// shut down.
func (r *Rig) activeCores(n int) []bool {
	active := make([]bool, r.TotalCores)
	for i := 0; i < n && i < r.TotalCores; i++ {
		active[i] = true
	}
	return active
}

// evaluateRun solves the power/thermal evaluation of an n-core run at
// lead point p, each core block charged at its own core's point.
func (r *Rig) evaluateRun(act *power.Activity, seconds float64, cycles int64, p dvfs.OperatingPoint, n int) (*power.Result, error) {
	return r.Meter.EvaluateHetero(r.FP, r.TM, act, seconds, cycles, p, r.corePoints(p), r.activeCores(n))
}

// intervalPower prices one interval of a transient replay: dynamic power
// with each core block at its own core's point and the shared blocks at
// lead, and static power from the block temperatures at the interval's
// start. The explicit leakage coupling is stable because intervals are
// short against the die's thermal time constants.
func (r *Rig) intervalPower(act *power.Activity, dt float64, cycles int64, lead dvfs.OperatingPoint, points []dvfs.OperatingPoint, active []bool, temps []float64) (dyn, total []float64, err error) {
	dyn, err = r.Meter.DynamicBlockPowerHetero(r.FP, act, dt, cycles, lead, points, active)
	if err != nil {
		return nil, nil, err
	}
	total = make([]float64, len(dyn))
	for i, b := range r.FP.Blocks {
		v := lead.Volt
		if b.Core >= 0 && b.Core < len(points) {
			v = points[b.Core].Volt
		}
		frac := r.Meter.StaticFraction(v, phys.Clamp(temps[i], phys.AmbientTempC, 120))
		total[i] = dyn[i] * (1 + frac)
	}
	return dyn, total, nil
}

// leadDomain picks the reference-clock island for multi-domain DTM: the
// fastest-ratio domain, lowest index on ties. The engine's global clock
// runs at the lead point, so this island's governor defines wall-clock
// stretch under throttling.
func (r *Rig) leadDomain() int {
	lead, best := 0, 0.0
	for di, d := range r.Domains.Domains() {
		if ratio := d.Ratio(); ratio > best {
			best, lead = ratio, di
		}
	}
	return lead
}

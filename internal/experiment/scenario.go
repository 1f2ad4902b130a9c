package experiment

import (
	"fmt"

	"cmppower/internal/cpu"
	"cmppower/internal/dvfs"
	"cmppower/internal/floorplan"
	"cmppower/internal/power"
	"cmppower/internal/scenario"
	"cmppower/internal/thermal"
)

// NewRigFromScenario builds and calibrates the apparatus described by a
// declarative scenario (see internal/scenario): technology node, die
// geometry and 3D stacking, DVFS ladder and domains, core mix, thermal
// constants, memory switches. It is the only rig constructor; a nil
// scenario means scenario.Baseline(), the paper's Table 1 apparatus.
func NewRigFromScenario(sc *scenario.Scenario, scale float64) (*Rig, error) {
	if !(scale > 0) {
		return nil, fmt.Errorf("experiment: invalid scale %g", scale)
	}
	if sc == nil {
		sc = scenario.Baseline()
	}
	// Baseline-equivalent scenarios keep the empty digest so every build
	// of the paper's chip shares every cache (memo, surrogate, server
	// responses); any other chip gets its content digest and can never
	// collide with a different chip's entries.
	sc, digest, err := sc.Identity()
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
		Scenario:            sc,
		scenarioDigest:      digest,
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
// scenarios canonically equal to the baseline chip, the full sha256 hex
// digest otherwise. It is folded into memo keys, surrogate keys, and the
// server's rig pool.
func (r *Rig) ScenarioDigest() string { return r.scenarioDigest }

// perCoreConfigs expands the run's base core config into per-core
// configs when the scenario makes cores differ — DVFS-domain speed
// ratios and big/little class overrides — and returns nil for
// homogeneous chips so they keep the uniform path. A chip with neither
// islands nor a class assignment is homogeneous by construction and
// allocates nothing.
func (r *Rig) perCoreConfigs(base cpu.Config, n int) []cpu.Config {
	if r.Domains == nil && len(r.Scenario.Cores.Assign) == 0 {
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
	if cl := r.Scenario.ClassOf(c); cl != nil {
		if cl.IssueWidth > 0 {
			cc.IssueWidth = cl.IssueWidth
		}
		if s := cl.IPCScale; s != 0 && s != 1 {
			cc.IPCNonMem *= s
		}
		// A narrow core caps the app's dependence-limited IPC at its own
		// width.
		if cc.IPCNonMem > float64(cc.IssueWidth) {
			cc.IPCNonMem = float64(cc.IssueWidth)
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

// evaluateRun solves the power/thermal evaluation of a run at lead point
// p with the cores marked in active powered, each core block charged at
// its own core's point.
func (r *Rig) evaluateRun(act *power.Activity, seconds float64, cycles int64, p dvfs.OperatingPoint, active []bool) (*power.Result, error) {
	return r.Meter.EvaluateHetero(r.FP, r.TM, act, seconds, cycles, p, r.corePoints(p), active)
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

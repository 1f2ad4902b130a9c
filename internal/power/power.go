// Package power turns microarchitectural activity into watts.
//
// It mirrors the paper's §3.3 methodology:
//
//   - Dynamic power is Wattch-style: per-structure activity counts times
//     per-access energies (internal/energy), with clock-gated idle
//     structures charged a small residual, all scaled by V².
//   - Static power is a fraction of the structure's full-throttle dynamic
//     power, exponentially dependent on temperature and reduced by the
//     leakage curve fit when the supply is scaled.
//   - Because Wattch's absolute watts are untrustworthy, everything is
//     renormalized against the thermal design point: the maximum
//     operational power is whatever makes the die reach 100 °C in the
//     HotSpot-style model, and the ratio between that number and the raw
//     Wattch estimate rescales all subsequent measurements.
package power

import (
	"errors"
	"fmt"
	"math"

	"cmppower/internal/dvfs"
	"cmppower/internal/energy"
	"cmppower/internal/floorplan"
	"cmppower/internal/phys"
	"cmppower/internal/thermal"
)

// Activity holds per-structure access counts accumulated during one
// simulation interval.
type Activity struct {
	nCores int
	// core[c][u] counts accesses of unit u by core c.
	core [][]int64
	// sleep[c] counts cycles core c spent in a deep low-power sleep state
	// (thrifty barriers, paper ref. [26]) instead of clock-gated idling.
	sleep []int64
	// l2, bus are the shared-structure access counts.
	l2, bus int64
}

// NewActivity returns an empty activity record for n cores.
func NewActivity(n int) *Activity {
	a := &Activity{nCores: n, core: make([][]int64, n), sleep: make([]int64, n)}
	for i := range a.core {
		a.core[i] = make([]int64, floorplan.NumUnits())
	}
	return a
}

// NCores returns the core count the record was sized for.
func (a *Activity) NCores() int { return a.nCores }

// AddCore charges n accesses of unit u to core c.
func (a *Activity) AddCore(c int, u floorplan.Unit, n int64) {
	a.core[c][u] += n
}

// AddSleep records n deep-sleep cycles for core c.
func (a *Activity) AddSleep(c int, n int64) { a.sleep[c] += n }

// SleepCount returns core c's deep-sleep cycles.
func (a *Activity) SleepCount(c int) int64 { return a.sleep[c] }

// AddL2 charges n L2 accesses.
func (a *Activity) AddL2(n int64) { a.l2 += n }

// AddBus charges n bus transactions.
func (a *Activity) AddBus(n int64) { a.bus += n }

// CoreCount returns core c's access count for unit u.
func (a *Activity) CoreCount(c int, u floorplan.Unit) int64 { return a.core[c][u] }

// L2Count returns the L2 access count.
func (a *Activity) L2Count() int64 { return a.l2 }

// BusCount returns the bus transaction count.
func (a *Activity) BusCount() int64 { return a.bus }

// Total returns the sum of all access counts.
func (a *Activity) Total() int64 {
	t := a.l2 + a.bus
	for _, cu := range a.core {
		for _, n := range cu {
			t += n
		}
	}
	return t
}

// Remap returns a copy of the record with core i's counters moved to
// physical core perm[i] (unmapped cores stay empty). perm must be a
// injective mapping into [0, NCores).
func (a *Activity) Remap(perm []int) (*Activity, error) {
	out := NewActivity(a.nCores)
	seen := make(map[int]bool, len(perm))
	for from, to := range perm {
		if from >= a.nCores || to < 0 || to >= a.nCores {
			return nil, fmt.Errorf("power: remap %d->%d outside [0,%d)", from, to, a.nCores)
		}
		if seen[to] {
			return nil, fmt.Errorf("power: remap target %d used twice", to)
		}
		seen[to] = true
		copy(out.core[to], a.core[from])
		out.sleep[to] = a.sleep[from]
	}
	out.l2, out.bus = a.l2, a.bus
	return out, nil
}

// maxActivityWeight is the per-cycle access rate of each unit in the
// quasi-maximum-power microbenchmark: a 4-wide issue stream saturating the
// front end with a mixed integer/FP payload. These rates bound what any
// application can generate (per-instruction units see IPC accesses per
// cycle, and IPC tops out below 3 in the modeled codes).
var maxActivityWeight = map[floorplan.Unit]float64{
	floorplan.UnitFetch:   3.2,
	floorplan.UnitRename:  3.2,
	floorplan.UnitWindow:  3.2,
	floorplan.UnitRegfile: 3.2,
	floorplan.UnitBpred:   0.6,
	floorplan.UnitIALU:    1.8,
	floorplan.UnitFALU:    1.8,
	floorplan.UnitLSQ:     1.0,
	floorplan.UnitIL1:     0.8,
	floorplan.UnitDL1:     1.0,
}

// MaxActivity returns the record of a chip where the first nActive cores
// run the quasi-maximum-power microbenchmark for the given cycle count —
// the renormalization workload of §3.3.
func MaxActivity(nCores, nActive int, cycles int64) *Activity {
	a := NewActivity(nCores)
	for c := 0; c < nActive && c < nCores; c++ {
		for _, u := range floorplan.CoreUnits() {
			a.AddCore(c, u, int64(maxActivityWeight[u]*float64(cycles)))
		}
	}
	return a
}

// Meter converts activity into per-block power. Create one with NewMeter
// and calibrate it once with Calibrate; the zero value is unusable.
type Meter struct {
	budget *energy.Budget
	tech   phys.Technology
	// Renorm is the Wattch→HotSpot dynamic-power ratio (1.0 before
	// Calibrate).
	Renorm float64
	// GateResidual is the fraction of per-cycle energy a clock-gated idle
	// core structure still burns (clock tree, latches).
	GateResidual float64
	// L2GateResidual is the same for the L2, which the paper notes is
	// aggressively clock gated.
	L2GateResidual float64
	// SleepResidual is the per-cycle energy fraction of a core structure
	// in a deep sleep state (thrifty barriers); far below GateResidual.
	SleepResidual float64
}

// NewMeter returns an uncalibrated meter for the technology.
func NewMeter(tech phys.Technology) (*Meter, error) {
	b, err := energy.EV6Budget(tech)
	if err != nil {
		return nil, err
	}
	return &Meter{
		budget:         b,
		tech:           tech,
		Renorm:         1,
		GateResidual:   0.10,
		L2GateResidual: 0.02,
		SleepResidual:  0.02,
	}, nil
}

// Tech returns the meter's technology.
func (m *Meter) Tech() phys.Technology { return m.tech }

// DynamicBlockPower returns per-floorplan-block dynamic power in watts for
// the interval: act accumulated over elapsed seconds and cycles chip
// cycles at operating point op, with the first activeCores cores powered
// (the rest are shut down and burn nothing). The block order matches
// fp.Blocks. It is DynamicBlockPowerHetero with every core at op.
func (m *Meter) DynamicBlockPower(fp *floorplan.Floorplan, act *Activity, elapsed float64, cycles int64, op dvfs.OperatingPoint, activeCores int) ([]float64, error) {
	if act.nCores < activeCores {
		return nil, fmt.Errorf("power: activity sized for %d cores, need %d", act.nCores, activeCores)
	}
	return m.DynamicBlockPowerHetero(fp, act, elapsed, cycles, op, uniformPoints(act.nCores, op), prefixSet(act.nCores, activeCores))
}

// prefixSet marks cores 0..n-1 active.
func prefixSet(total, n int) []bool {
	set := make([]bool, total)
	for i := 0; i < n && i < total; i++ {
		set[i] = true
	}
	return set
}

// uniformPoints puts all n cores at op.
func uniformPoints(n int, op dvfs.OperatingPoint) []dvfs.OperatingPoint {
	pts := make([]dvfs.OperatingPoint, n)
	for i := range pts {
		pts[i] = op
	}
	return pts
}

// DynamicBlockPowerHetero is the one dynamic-power implementation, under
// the steady and the interval evaluations alike: per-block watts as for
// DynamicBlockPower, with each core block's per-access energy scaled by
// its own core's supply from corePoints (one entry per physical core,
// act.NCores() of them) while the shared L2 and bus charge at the lead
// (uncore) point. Only the cores marked in active burn power; they need
// not be a contiguous prefix (thermal-aware placement scatters them).
func (m *Meter) DynamicBlockPowerHetero(fp *floorplan.Floorplan, act *Activity, elapsed float64, cycles int64, lead dvfs.OperatingPoint, corePoints []dvfs.OperatingPoint, active []bool) ([]float64, error) {
	if elapsed <= 0 || cycles <= 0 {
		return nil, fmt.Errorf("power: non-positive interval (elapsed=%g cycles=%d)", elapsed, cycles)
	}
	if act.nCores != len(active) {
		return nil, fmt.Errorf("power: activity sized for %d cores, active set has %d", act.nCores, len(active))
	}
	if len(corePoints) != act.nCores {
		return nil, fmt.Errorf("power: %d core points for %d cores", len(corePoints), act.nCores)
	}
	out := make([]float64, len(fp.Blocks))
	for i, b := range fp.Blocks {
		var accesses, residual float64
		var unitEnergy float64
		switch {
		case b.Core >= 0:
			if b.Core >= len(active) || !active[b.Core] {
				continue // powered off
			}
			n := act.CoreCount(b.Core, b.Unit)
			accesses = float64(n)
			if idle := cycles - n; idle > 0 {
				slept := act.SleepCount(b.Core)
				if slept > idle {
					slept = idle
				}
				residual = m.GateResidual*float64(idle-slept) + m.SleepResidual*float64(slept)
			}
			unitEnergy = m.budget.PerAccessAt(b.Unit, corePoints[b.Core].Volt)
		case b.Unit == floorplan.UnitL2:
			// L2 activity is spread across the banks.
			nBanks := 0
			for _, bb := range fp.Blocks {
				if bb.Unit == floorplan.UnitL2 {
					nBanks++
				}
			}
			accesses = float64(act.L2Count()) / float64(nBanks)
			if idle := float64(cycles) - accesses; idle > 0 {
				residual = m.L2GateResidual * idle
			}
			unitEnergy = m.budget.PerAccessAt(floorplan.UnitL2, lead.Volt) / float64(nBanks)
		case b.Unit == floorplan.UnitBus:
			accesses = float64(act.BusCount())
			if idle := float64(cycles) - accesses; idle > 0 {
				residual = m.GateResidual * idle
			}
			unitEnergy = m.budget.PerAccessAt(floorplan.UnitBus, lead.Volt)
		}
		out[i] = m.Renorm * unitEnergy * (accesses + residual) / elapsed
	}
	return out, nil
}

// StaticFraction returns the static-to-dynamic power ratio at supply v and
// die temperature tempC. Following the paper's experimental model (§3.3,
// after [5]), static power is a fraction of the *actual* dynamic power,
// with the fraction exponentially dependent on temperature; the additional
// voltage factor keeps the ratio consistent with the leakage curve fit when
// the chip scales its supply (static is V·I_leak while dynamic carries V²).
func (m *Meter) StaticFraction(v, tempC float64) float64 {
	return m.tech.StaticDynRatioHot() *
		math.Exp(m.tech.LeakBetaT*(tempC-phys.MaxDieTempC)) *
		(m.tech.Vdd / v) * math.Exp(m.tech.LeakBetaV*(v-m.tech.Vdd))
}

// Result is the power/thermal outcome of one measured interval.
type Result struct {
	BlockDyn    []float64 // per-block dynamic watts
	BlockTotal  []float64 // per-block dynamic+static watts at the thermal fixed point
	TempC       []float64 // per-block temperature, °C
	DynW        float64   // total dynamic power
	StaticW     float64   // total static power
	TotalW      float64   // DynW + StaticW
	AvgCoreTemp float64   // area-weighted average over core blocks (L2/bus excluded, §3.3)
	PeakTempC   float64
	// CoreDensity is core-region power over active core area, W/m²
	// (L2 excluded from both numerator and denominator, §3.3).
	CoreDensity float64
}

// BlockStaticFraction is the leakage rule of every power evaluation,
// steady and interval alike: the static-to-dynamic ratio of a floorplan
// block owned by core (-1 for the shared L2 and bus) at temperature
// tempC. The block's supply is its core's entry of corePoints, or the
// lead point for shared blocks; the temperature is clamped to [ambient,
// 120 °C] before StaticFraction applies.
func (m *Meter) BlockStaticFraction(core int, lead dvfs.OperatingPoint, corePoints []dvfs.OperatingPoint, tempC float64) float64 {
	v := lead.Volt
	if core >= 0 && core < len(corePoints) {
		v = corePoints[core].Volt
	}
	// Clamp the temperature seen by the leakage model: real parts
	// thermally throttle near 120 °C, and an unclamped exponential can
	// otherwise run away numerically for power-virus inputs.
	return m.StaticFraction(v, phys.Clamp(tempC, phys.AmbientTempC, 120))
}

// Evaluate solves the coupled power/thermal problem for one interval with
// every core at op and the first activeCores cores powered, and returns
// the full breakdown. It is EvaluateHetero with every core at op.
func (m *Meter) Evaluate(fp *floorplan.Floorplan, tm *thermal.Model, act *Activity, elapsed float64, cycles int64, op dvfs.OperatingPoint, activeCores int) (*Result, error) {
	if act.nCores < activeCores {
		return nil, fmt.Errorf("power: activity sized for %d cores, need %d", act.nCores, activeCores)
	}
	return m.EvaluateHetero(fp, tm, act, elapsed, cycles, op, uniformPoints(act.nCores, op), prefixSet(act.nCores, activeCores))
}

// EvaluateHetero is the steady evaluation every measurement shares: the
// interval's dynamic power (DynamicBlockPowerHetero) with static power
// added at the leakage↔temperature fixed point, each block leaking by
// BlockStaticFraction. corePoints and active are as for
// DynamicBlockPowerHetero.
func (m *Meter) EvaluateHetero(fp *floorplan.Floorplan, tm *thermal.Model, act *Activity, elapsed float64, cycles int64, lead dvfs.OperatingPoint, corePoints []dvfs.OperatingPoint, active []bool) (*Result, error) {
	if tm.Floorplan() != fp {
		return nil, errors.New("power: thermal model built for a different floorplan")
	}
	dyn, err := m.DynamicBlockPowerHetero(fp, act, elapsed, cycles, lead, corePoints, active)
	if err != nil {
		return nil, err
	}
	leak := func(i int, tempC float64) float64 {
		return dyn[i] * m.BlockStaticFraction(fp.Blocks[i].Core, lead, corePoints, tempC)
	}
	temps, total, err := tm.SteadyStateCoupled(dyn, leak, 0.01)
	if err != nil {
		return nil, err
	}
	isActive := func(b floorplan.Block) bool {
		return b.Core >= 0 && b.Core < len(active) && active[b.Core]
	}
	res := &Result{BlockDyn: dyn, BlockTotal: total, TempC: temps}
	var coreP, coreA float64
	for i, b := range fp.Blocks {
		res.DynW += dyn[i]
		res.TotalW += total[i]
		if isActive(b) {
			coreP += total[i]
			coreA += b.Area()
		}
	}
	res.StaticW = res.TotalW - res.DynW
	res.PeakTempC = thermal.Peak(temps)
	res.AvgCoreTemp = tm.AvgWeighted(temps, isActive)
	if coreA > 0 {
		res.CoreDensity = coreP / coreA
	}
	return res, nil
}

// Calibration is the output of the renormalization step.
type Calibration struct {
	// MaxOperationalW is the total chip power that puts the die at the
	// maximum operating temperature with one core flat out — the paper's
	// power budget for Scenario II.
	MaxOperationalW float64
	// MaxDynamicW is its dynamic component per the static-share split.
	MaxDynamicW float64
	// RawWattchW is the uncalibrated meter's dynamic estimate for the same
	// microbenchmark.
	RawWattchW float64
	// Renorm = MaxDynamicW / RawWattchW, installed into the meter.
	Renorm float64
}

// Calibrate renormalizes the meter in place against the thermal design
// point (paper §3.3): a single-core max-power microbenchmark must land the
// die exactly at phys.MaxDieTempC. Returns the calibration record.
func (m *Meter) Calibrate(fp *floorplan.Floorplan, tm *thermal.Model, op dvfs.OperatingPoint) (*Calibration, error) {
	if tm.Floorplan() != fp {
		return nil, errors.New("power: thermal model built for a different floorplan")
	}
	// Shape: all of core 0's structures lit up (plus the L2's residual
	// share handled implicitly by its small area weight being zero here —
	// the paper's microbenchmark is compute-bound and core-resident).
	shape := make([]float64, len(fp.Blocks))
	for _, i := range fp.CoreBlocks(0) {
		// Weight blocks by their per-access energy so the hot spot shape
		// tracks the real power breakdown.
		shape[i] = m.budget.PerAccess(fp.Blocks[i].Unit)
	}
	_, totalW, err := tm.PowerForPeak(shape, phys.MaxDieTempC)
	if err != nil {
		return nil, err
	}
	cal := &Calibration{MaxOperationalW: totalW}
	cal.MaxDynamicW = totalW * (1 - m.tech.StaticShare)

	// Raw Wattch estimate for the same microbenchmark: one access per
	// structure per cycle on core 0 at the nominal operating point.
	const probeCycles = 1 << 20
	act := MaxActivity(1, 1, probeCycles)
	prev := m.Renorm
	m.Renorm = 1
	elapsed := float64(probeCycles) / op.Freq
	dyn, err := m.DynamicBlockPower(fp, act, elapsed, probeCycles, op, 1)
	if err != nil {
		m.Renorm = prev
		return nil, err
	}
	var raw float64
	for i, b := range fp.Blocks {
		if b.Core == 0 {
			raw += dyn[i]
		}
	}
	if raw <= 0 {
		m.Renorm = prev
		return nil, errors.New("power: zero raw microbenchmark power")
	}
	cal.RawWattchW = raw
	cal.Renorm = cal.MaxDynamicW / raw
	m.Renorm = cal.Renorm
	return cal, nil
}

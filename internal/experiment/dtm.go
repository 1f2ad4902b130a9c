package experiment

import (
	"context"
	"fmt"
	"runtime/debug"

	"cmppower/internal/cmp"
	"cmppower/internal/dvfs"
	"cmppower/internal/phys"
	"cmppower/internal/splash"
	"cmppower/internal/thermal"
)

// DTMConfig parameterizes the dynamic thermal-management controller: a
// reactive governor that watches the (possibly faulty) on-die temperature
// sensors at every activity interval and throttles the DVFS ladder, per
// island on chips with DVFS domains, with hysteresis so the die never
// silently violates MaxDieTempC.
//
// This is the production-realistic regime the paper assumes away: the
// paper's §3.3 renormalization *defines* the envelope so the hottest
// microbenchmark sits exactly at 100 °C; overclocked or mispredicted
// operating points can exceed it, and the DTM controller is what degrades
// the run gracefully instead of letting the model report an out-of-spec
// temperature as if it were sustainable.
type DTMConfig struct {
	// TripC is the emergency threshold on the hottest sensor reading.
	// The default sits a guard band below phys.MaxDieTempC so one interval
	// of thermal overshoot stays inside the envelope.
	TripC float64
	// HysteresisC is the re-arm band: the controller only steps back up
	// once the hottest reading falls below TripC - HysteresisC, preventing
	// throttle/unthrottle ping-pong at the threshold.
	HysteresisC float64
	// StepDown is how many ladder rungs an emergency drops (≥1).
	StepDown int
	// Intervals is how many activity intervals the run is split into for
	// the controller's decision loop.
	Intervals int
	// TimeDilation stretches each interval's wall-clock duration as seen
	// by the thermal network (the same device as Rig.Transient: scaled
	// workloads run for milliseconds while die time constants are tens of
	// milliseconds; dilation models the program phase repeating).
	TimeDilation float64
}

// DefaultDTMConfig returns the standard controller: trip 4 °C under the
// die limit, 5 °C of hysteresis, two rungs per emergency, 64 decision
// intervals.
func DefaultDTMConfig() DTMConfig {
	return DTMConfig{
		TripC:        phys.MaxDieTempC - 4,
		HysteresisC:  5,
		StepDown:     2,
		Intervals:    64,
		TimeDilation: 2000,
	}
}

// Validate checks the controller parameters.
func (c DTMConfig) Validate() error {
	switch {
	case c.TripC <= phys.AmbientTempC:
		return fmt.Errorf("experiment: DTM trip %g °C not above ambient %g °C", c.TripC, phys.AmbientTempC)
	case c.HysteresisC < 0:
		return fmt.Errorf("experiment: negative DTM hysteresis %g", c.HysteresisC)
	case c.StepDown < 1:
		return fmt.Errorf("experiment: DTM step-down %d < 1", c.StepDown)
	case c.Intervals < 2:
		return fmt.Errorf("experiment: DTM intervals %d < 2", c.Intervals)
	case c.TimeDilation <= 0:
		return fmt.Errorf("experiment: non-positive DTM time dilation %g", c.TimeDilation)
	}
	return nil
}

// DTMStats are one run's thermal-management metrics.
type DTMStats struct {
	// Emergencies counts trip events (hottest sensor ≥ TripC).
	Emergencies int
	// Transitions counts DVFS requests the governor latched (throttle-downs
	// and recovery steps that took effect).
	Transitions int
	// FailedTransitions counts DVFS requests dropped by fault injection.
	FailedTransitions int
	// ThrottleResidency is the fraction of the run's wall-clock time spent
	// below the requested operating point.
	ThrottleResidency float64
	// PerfLossFrac is the run-time inflation caused by throttling:
	// (throttled duration - nominal duration) / nominal duration.
	PerfLossFrac float64
	// PeakReadingC is the hottest sensor reading observed (what the
	// controller acted on — includes injected sensor faults).
	PeakReadingC float64
	// PeakTempC is the hottest *true* model temperature reached, i.e. the
	// physical outcome the controller is judged on.
	PeakTempC float64
	// FloorHit reports the controller ran out of ladder below it at least
	// once while the die was still above the trip point.
	FloorHit bool
	// FinalPoint is the operating point in effect when the run ended.
	FinalPoint dvfs.OperatingPoint
}

// DTMSummary aggregates DTMStats over every run of a scenario.
type DTMSummary struct {
	Runs                 int
	Emergencies          int
	FailedTransitions    int
	MaxThrottleResidency float64
	MaxPerfLossFrac      float64
	PeakReadingC         float64
	PeakTempC            float64
}

// summarizeDTM folds the per-measurement controller stats of ms (entries
// without stats are skipped).
func summarizeDTM(ms []*Measurement) *DTMSummary {
	s := &DTMSummary{}
	for _, m := range ms {
		if m == nil || m.DTM == nil {
			continue
		}
		s.Runs++
		s.Emergencies += m.DTM.Emergencies
		s.FailedTransitions += m.DTM.FailedTransitions
		if m.DTM.ThrottleResidency > s.MaxThrottleResidency {
			s.MaxThrottleResidency = m.DTM.ThrottleResidency
		}
		if m.DTM.PerfLossFrac > s.MaxPerfLossFrac {
			s.MaxPerfLossFrac = m.DTM.PerfLossFrac
		}
		if m.DTM.PeakReadingC > s.PeakReadingC {
			s.PeakReadingC = m.DTM.PeakReadingC
		}
		if m.DTM.PeakTempC > s.PeakTempC {
			s.PeakTempC = m.DTM.PeakTempC
		}
	}
	return s
}

// stepDownFrom returns the ladder point `rungs` steps below freq (ladder
// floor when the walk runs out).
func stepDownFrom(t *dvfs.Table, freq float64, rungs int) dvfs.OperatingPoint {
	p := t.Quantize(freq)
	if p.Freq >= freq {
		// freq sat on (or below) a rung: Quantize was not a step down yet.
		rungs++
	}
	for i := 1; i < rungs; i++ {
		next := t.Quantize(p.Freq * (1 - 1e-9))
		if next.Freq >= p.Freq {
			break // floor
		}
		p = next
	}
	if p.Freq >= freq {
		p = t.Min()
	}
	return p
}

// dtmResidencyBounds bins the fraction of a run spent throttled (a
// per-run throttle-interval summary: 0 means the controller never bit).
var dtmResidencyBounds = []float64{0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75}

// attachDTM sets m.DTM to the DTM replay of m's run (app at m.N cores and
// m.Point, workload seed seed). It does nothing without a DTM config or
// when m already carries stats. With the memo on, the replay is made at
// most once per memo entry, single-flight like the run itself; every
// later request gets a copy of the stored stats. Only measurements that
// reach an output need the replay, so the scenarios attach it to those
// alone — except under active fault injection, where runApp attaches it
// to every run as it completes.
func (r *Rig) attachDTM(ctx context.Context, app splash.App, m *Measurement, seed uint64) (err error) {
	if r.DTM == nil || m.DTM != nil {
		return nil
	}
	replay := func() (*DTMStats, error) { return r.replayDTM(ctx, app, m.N, m.Point, m.Cycles, seed) }
	if r.memo != nil && r.memoizable() {
		m.DTM, err = r.memo.dtm(ctx, r.memoKeyFor(app.Name, m.N, m.Point, seed), replay)
	} else {
		m.DTM, err = replay()
	}
	return err
}

// replayDTM runs runDTM for one run and publishes its controller
// counters, so the dtm_* metrics count replays made. Failures and panics
// become *RunError values carrying the run's provenance, like runApp's.
func (r *Rig) replayDTM(ctx context.Context, app splash.App, n int, p dvfs.OperatingPoint, runCycles float64, seed uint64) (st *DTMStats, err error) {
	fail := func(step string, err error) error {
		return &RunError{App: app.Name, N: n, Point: p, Seed: seed, Step: step, Err: err}
	}
	defer func() {
		if v := recover(); v != nil {
			st, err = nil, fail("panic", &PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	st, err = r.runDTM(ctx, app, n, p, runCycles, seed)
	if err != nil {
		return nil, fail("dtm", err)
	}
	r.Obs.Counter("dtm_emergencies_total").Add(int64(st.Emergencies))
	r.Obs.Counter("dtm_transitions_total").Add(int64(st.Transitions))
	r.Obs.Counter("dtm_failed_transitions_total").Add(int64(st.FailedTransitions))
	r.Obs.Histogram("dtm_throttle_residency", dtmResidencyBounds).Observe(st.ThrottleResidency)
	if st.FloorHit {
		r.Obs.Counter("dtm_floor_hits_total").Add(1)
	}
	return st, nil
}

// runDTM re-simulates app with interval activity sampling and replays the
// intervals through the transient thermal network under the DTM
// controller: one governor per DVFS island, each tripping on the hottest
// sensor among its own blocks and throttling only its island's ladder. A
// chip without islands is one island at the requested point. Shared
// uncore blocks (L2, bus) belong to the lead island's sensor group. The
// controller reads the die through the rig's (possibly faulty) sensors
// and requests DVFS transitions that may themselves fail; each interval's
// power is re-evaluated with every core block at its island's throttled
// point, and its wall-clock duration stretches with the lead island's
// governor, the engine's reference clock. Stats are summed across
// islands; FinalPoint reports the lead island's governor.
//
// The replay approximates mid-run frequency changes at interval
// granularity: each interval's cycle count is taken from the fixed-point
// run at the requested operating point, and throttling dilates the time
// (and scales the power) those cycles take. At this fidelity level —
// activity-counter power over an RC network — that is the same
// approximation the paper itself makes when it re-simulates profiled
// workloads at scaled operating points.
func (r *Rig) runDTM(ctx context.Context, app splash.App, n int, req dvfs.OperatingPoint, runCycles float64, seed uint64) (*DTMStats, error) {
	dc := *r.DTM
	if dc == (DTMConfig{}) {
		dc = DefaultDTMConfig()
	}
	if err := dc.Validate(); err != nil {
		return nil, err
	}
	cfg := r.runConfig(ctx, app, n, req, seed)
	cfg.SampleCycles = runCycles / float64(dc.Intervals)
	if cfg.SampleCycles < 1 {
		cfg.SampleCycles = 1
	}
	res, err := cmp.Run(app.Program(r.Scale), cfg)
	if err != nil {
		return nil, err
	}
	if len(res.Samples) == 0 {
		return nil, fmt.Errorf("experiment: DTM run of %s/%d produced no samples", app.Name, n)
	}

	var sensors thermal.SensorReader
	var transitions dvfs.TransitionFault
	if r.Faults != nil {
		sensors, transitions = r.Faults, r.Faults
	}
	// Islands: coreDom maps every core to its island, reqD holds each
	// island's requested point, lead indexes the reference-clock island.
	lead := 0
	coreDom := make([]int, r.TotalCores)
	reqD := []dvfs.OperatingPoint{req}
	if r.Domains != nil {
		lead = r.leadDomain()
		reqD = make([]dvfs.OperatingPoint, r.Domains.Len())
		for di := range reqD {
			reqD[di] = r.Domains.PointFor(r.Table, di, req)
		}
		for c := range coreDom {
			coreDom[c] = r.Domains.DomainOf(c)
		}
	}
	governors := make([]*dvfs.Setting, len(reqD))
	for di := range governors {
		governors[di] = &dvfs.Setting{Point: reqD[di], Nominal: reqD[di]}
	}
	// blockDom maps every floorplan block to the island whose sensor
	// group it belongs to; shared blocks ride with the lead.
	blockDom := make([]int, len(r.FP.Blocks))
	for i, b := range r.FP.Blocks {
		if b.Core >= 0 && b.Core < r.TotalCores {
			blockDom[i] = coreDom[b.Core]
		} else {
			blockDom[i] = lead
		}
	}
	active := r.activeCores(n)

	state := r.TM.NewTransientState()
	st := &DTMStats{FinalPoint: reqD[lead]}
	corePoints := make([]dvfs.OperatingPoint, r.TotalCores)
	var totalSec, nominalSec, throttledSec float64
	for _, s := range res.Samples {
		leadCur := governors[lead].Point
		cycles := s.EndCycle - s.StartCycle
		realDt := cycles / leadCur.Freq
		nominalSec += cycles / reqD[lead].Freq
		totalSec += realDt
		throttled := false
		for di, g := range governors {
			if g.Point.Freq < reqD[di].Freq {
				throttled = true
			}
		}
		if throttled {
			throttledSec += realDt
		}
		for c := range corePoints {
			corePoints[c] = governors[coreDom[c]].Point
		}
		_, total, err := r.intervalPower(s.Activity, realDt, int64(cycles)+1, leadCur, corePoints, active, state.Block)
		if err != nil {
			return nil, err
		}
		if err := r.TM.TransientStep(state, total, realDt*dc.TimeDilation); err != nil {
			return nil, err
		}
		if truePeak := thermal.Peak(state.Block); truePeak > st.PeakTempC {
			st.PeakTempC = truePeak
		}
		sensed := thermal.Sense(state.Block, sensors)
		for di := range governors {
			var reading float64
			for i := range sensed {
				if blockDom[i] == di && sensed[i] > reading {
					reading = sensed[i]
				}
			}
			if reading > st.PeakReadingC {
				st.PeakReadingC = reading
			}
			cur := governors[di].Point
			switch {
			case reading >= dc.TripC:
				// Thermal emergency: throttle the island down the ladder.
				st.Emergencies++
				target := stepDownFrom(r.Table, cur.Freq, dc.StepDown)
				if target.Freq >= cur.Freq {
					st.FloorHit = true
					break
				}
				if _, ok := governors[di].Request(target, transitions); ok {
					st.Transitions++
				} else {
					st.FailedTransitions++
				}
			case reading < dc.TripC-dc.HysteresisC && cur.Freq < reqD[di].Freq:
				// Cooled down: recover one rung toward the requested point.
				target := r.Table.StepAbove(cur.Freq * (1 + 1e-9))
				if target.Freq > reqD[di].Freq {
					target = reqD[di]
				}
				if _, ok := governors[di].Request(target, transitions); ok {
					st.Transitions++
				} else {
					st.FailedTransitions++
				}
			}
		}
	}
	if totalSec > 0 {
		st.ThrottleResidency = throttledSec / totalSec
	}
	if nominalSec > 0 {
		st.PerfLossFrac = totalSec/nominalSec - 1
	}
	st.FinalPoint = governors[lead].Point
	return st, nil
}

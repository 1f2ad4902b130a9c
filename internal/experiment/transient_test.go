package experiment

import (
	"errors"
	"math"
	"testing"

	"cmppower/internal/check"
	"cmppower/internal/dvfs"
	"cmppower/internal/phys"
	"cmppower/internal/scenario"
)

func TestTransientWarmingCurve(t *testing.T) {
	rig := testRig(t)
	a := app(t, "FMM")
	tc := DefaultTransientConfig()
	tc.TimeDilation = 5000
	trace, err := rig.Transient(a, 1, rig.Table.Nominal(), tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 4 {
		t.Fatalf("only %d trace points", len(trace))
	}
	first, last := trace[0], trace[len(trace)-1]
	// The die starts at ambient and warms monotonically (FMM's activity is
	// steady enough for this to hold interval to interval).
	if first.AvgCoreTempC <= phys.AmbientTempC {
		t.Errorf("no warming in first interval: %g", first.AvgCoreTempC)
	}
	if last.AvgCoreTempC <= first.AvgCoreTempC {
		t.Errorf("die did not warm across the run: %g -> %g", first.AvgCoreTempC, last.AvgCoreTempC)
	}
	for i, pt := range trace {
		if pt.PeakTempC < pt.AvgCoreTempC-0.5 {
			t.Errorf("interval %d: peak %g below average %g", i, pt.PeakTempC, pt.AvgCoreTempC)
		}
		if pt.TotalW < pt.DynW {
			t.Errorf("interval %d: total %g below dynamic %g", i, pt.TotalW, pt.DynW)
		}
		if pt.Seconds <= 0 {
			t.Errorf("interval %d: non-positive duration", i)
		}
	}
	// With leakage tracking temperature, late intervals burn more static
	// power than early ones at similar activity.
	if last.TotalW-last.DynW <= 0 {
		t.Error("no static power by the end of the warming curve")
	}
}

func TestTransientApproachesSteadyStateEvaluation(t *testing.T) {
	// With a huge dilation, the transient end temperature should approach
	// the steady-state coupled evaluation of the same run.
	rig := testRig(t)
	a := app(t, "Water-Sp")
	p := rig.Table.Nominal()
	tc := DefaultTransientConfig()
	// Dilate far past the heat sink's ~40 s equilibration.
	tc.TimeDilation = 3e6
	trace, err := rig.Transient(a, 1, p, tc)
	if err != nil {
		t.Fatal(err)
	}
	steady, err := rig.RunApp(a, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	last := trace[len(trace)-1]
	diff := last.AvgCoreTempC - steady.AvgCoreTempC
	if diff < -6 || diff > 6 {
		t.Errorf("transient end %g °C vs steady state %g °C", last.AvgCoreTempC, steady.AvgCoreTempC)
	}
}

func TestTransientValidation(t *testing.T) {
	rig := testRig(t)
	a := app(t, "LU")
	tc := DefaultTransientConfig()
	if _, err := rig.Transient(a, 6, rig.Table.Nominal(), tc); err == nil {
		t.Error("accepted invalid core count for power-of-two app")
	}
	// A dilation past maxTimeDilation used to be accepted and stepped for
	// ~duration/dtStable substeps per interval (1e300: forever).
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1), 1e300, math.Nextafter(maxTimeDilation, math.Inf(1))} {
		tc.TimeDilation = d
		var ce *check.Error
		if _, err := rig.Transient(a, 4, rig.Table.Nominal(), tc); !errors.As(err, &ce) || ce.Field != "TimeDilation" {
			t.Errorf("dilation %g: got %v, want a *check.Error on TimeDilation", d, err)
		}
	}
	tc = DefaultTransientConfig()
	tc.StartTempC = 10
	if _, err := rig.Transient(a, 4, rig.Table.Nominal(), tc); err == nil {
		t.Error("accepted sub-ambient start temperature")
	}
}

func TestTransientExplicitSampling(t *testing.T) {
	rig := testRig(t)
	a := app(t, "FFT")
	tc := DefaultTransientConfig()
	tc.SampleCycles = 20000
	trace, err := rig.Transient(a, 2, rig.Table.Nominal(), tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("no trace points")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].StartCycle != trace[i-1].EndCycle {
			t.Fatalf("trace not contiguous at %d", i)
		}
	}
}

// TestReplayGovernedMatchesTransient: Rig.Transient and the DTM governor
// step the die through one shared interval step. A governed run whose
// trip point the die can never reach never throttles, so it must report
// no emergencies and no throttle residency, and its true peak must be
// the hottest point of the trace Transient draws from the same samples
// (same SampleCycles, dilation and ambient start), bit for bit. It checks
// the one-island baseline chip and the two islands of big/little.
func TestReplayGovernedMatchesTransient(t *testing.T) {
	biglittle, err := scenario.LoadFile("../../examples/scenarios/biglittle.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*scenario.Scenario{nil, biglittle} {
		rig, err := NewRigFromScenario(sc, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		dc := DefaultDTMConfig()
		dc.TripC = 1e6
		rig.DTM = &dc
		for _, a := range []string{"FFT", "Radix"} {
			for _, n := range []int{1, 4, 16} {
				for _, p := range []dvfs.OperatingPoint{rig.Table.Nominal(), rig.Table.PointFor(1.4e9)} {
					m, err := rig.RunApp(app(t, a), n, p)
					if err != nil {
						t.Fatal(err)
					}
					st := m.DTM
					if st.Emergencies != 0 || st.ThrottleResidency != 0 || st.Transitions != 0 {
						t.Errorf("%s: %s/%d at %v throttled under an unreachable trip: %+v", rig.Scenario.Name, a, n, p, st)
					}
					trace, err := rig.Transient(app(t, a), n, p, TransientConfig{
						SampleCycles: dc.periodCycles(rig.Scale, p),
						TimeDilation: dc.TimeDilation,
						StartTempC:   phys.AmbientTempC,
					})
					if err != nil {
						t.Fatal(err)
					}
					peak := math.Inf(-1)
					for _, pt := range trace {
						peak = math.Max(peak, pt.PeakTempC)
					}
					if st.PeakTempC != peak {
						t.Errorf("%s: %s/%d at %v: governed peak %v, transient trace peak %v", rig.Scenario.Name, a, n, p, st.PeakTempC, peak)
					}
				}
			}
		}
	}
}

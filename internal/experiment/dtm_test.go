package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"cmppower/internal/check"
	"cmppower/internal/cmp"
	"cmppower/internal/dvfs"
	"cmppower/internal/faults"
	"cmppower/internal/phys"
	"cmppower/internal/scenario"
)

// overclockedRig returns a rig whose ladder extends 30% above nominal, so
// running flat out at the top point exceeds the thermal design point the
// chip was calibrated for.
func overclockedRig(t *testing.T) *Rig {
	t.Helper()
	rig := testRig(t)
	oc, err := rig.Table.WithOverclock(1.3)
	if err != nil {
		t.Fatal(err)
	}
	rig.Table = oc
	return rig
}

func TestDTMKeepsOverclockedRunWithinEnvelope(t *testing.T) {
	rig := overclockedRig(t)
	req := rig.Table.Nominal() // overclocked top point
	// Unmanaged, the overclocked run must actually overheat — otherwise
	// this test exercises nothing.
	un, err := rig.RunApp(app(t, "LU"), 2, req)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultDTMConfig()
	if un.PeakTempC <= cfg.TripC {
		t.Fatalf("unmanaged overclocked peak %.1f °C below trip %.1f °C; stress config too weak", un.PeakTempC, cfg.TripC)
	}
	rig.DTM = &cfg
	m, err := rig.RunApp(app(t, "LU"), 2, req)
	if err != nil {
		t.Fatal(err)
	}
	st := m.DTM
	if st == nil {
		t.Fatal("no DTM stats attached")
	}
	if st.Emergencies == 0 {
		t.Error("overclocked stress run tripped no emergencies")
	}
	if st.PeakReadingC > phys.MaxDieTempC {
		t.Errorf("DTM let the sensed die reach %.1f °C > limit %.0f", st.PeakReadingC, phys.MaxDieTempC)
	}
	if st.ThrottleResidency <= 0 || st.ThrottleResidency > 1 {
		t.Errorf("throttle residency %g outside (0,1]", st.ThrottleResidency)
	}
	if st.PerfLossFrac <= 0 {
		t.Errorf("throttling should cost performance, got loss %g", st.PerfLossFrac)
	}
	if st.FinalPoint.Freq >= req.Freq && st.ThrottleResidency > 0.5 {
		t.Errorf("mostly-throttled run ended back at the requested point %v", st.FinalPoint)
	}
}

func TestDTMIdleAtCoolOperatingPoint(t *testing.T) {
	rig := testRig(t)
	cfg := DefaultDTMConfig()
	rig.DTM = &cfg
	m, err := rig.RunApp(app(t, "FFT"), 4, rig.Table.Min())
	if err != nil {
		t.Fatal(err)
	}
	st := m.DTM
	if st == nil {
		t.Fatal("no DTM stats attached")
	}
	if st.Emergencies != 0 || st.ThrottleResidency != 0 {
		t.Errorf("cool run should never throttle: %+v", st)
	}
	if st.PerfLossFrac > 1e-12 {
		t.Errorf("cool run lost performance: %g", st.PerfLossFrac)
	}
	if st.FinalPoint != rig.Table.Min() {
		t.Errorf("final point %v moved from requested %v", st.FinalPoint, rig.Table.Min())
	}
}

func TestDTMZeroConfigUsesDefaults(t *testing.T) {
	rig := testRig(t)
	rig.DTM = &DTMConfig{} // zero value: resolve substitutes the defaults
	m, err := rig.RunApp(app(t, "FFT"), 2, rig.Table.Min())
	if err != nil {
		t.Fatal(err)
	}
	if m.DTM == nil {
		t.Fatal("no DTM stats attached")
	}
}

func TestDTMInvalidConfigSurfacesAsRunError(t *testing.T) {
	rig := testRig(t)
	rig.DTM = &DTMConfig{TripC: 10, HysteresisC: 1, StepDown: 1, Intervals: 8, TimeDilation: 1}
	_, err := rig.RunApp(app(t, "FFT"), 2, rig.Table.Min())
	if err == nil {
		t.Fatal("accepted a trip point below ambient")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %T: %v", err, err)
	}
	if re.Step != "dtm" {
		t.Errorf("step %q, want dtm", re.Step)
	}
}

func TestDTMConfigValidate(t *testing.T) {
	if err := DefaultDTMConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	edge := DefaultDTMConfig()
	edge.Intervals = maxDTMIntervals
	edge.TimeDilation = maxTimeDilation
	if err := edge.Validate(); err != nil {
		t.Errorf("%d intervals at dilation %g rejected: %v", maxDTMIntervals, maxTimeDilation, err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		field string
		set   func(*DTMConfig)
	}{
		{"TripC", func(c *DTMConfig) { c.TripC = phys.AmbientTempC }},
		{"TripC", func(c *DTMConfig) { c.TripC = nan }},
		{"TripC", func(c *DTMConfig) { c.TripC = inf }},
		{"HysteresisC", func(c *DTMConfig) { c.HysteresisC = -1 }},
		{"HysteresisC", func(c *DTMConfig) { c.HysteresisC = nan }},
		{"HysteresisC", func(c *DTMConfig) { c.HysteresisC = inf }},
		{"StepDown", func(c *DTMConfig) { c.StepDown = 0 }},
		{"Intervals", func(c *DTMConfig) { c.Intervals = 1 }},
		{"Intervals", func(c *DTMConfig) { c.Intervals = maxDTMIntervals + 1 }},
		{"Intervals", func(c *DTMConfig) { c.Intervals = 1 << 30 }},
		{"TimeDilation", func(c *DTMConfig) { c.TimeDilation = 0 }},
		{"TimeDilation", func(c *DTMConfig) { c.TimeDilation = nan }},
		{"TimeDilation", func(c *DTMConfig) { c.TimeDilation = inf }},
		// Finite but past the bound: 1e300 used to pass and hang RunApp in
		// TransientStep's substep loop.
		{"TimeDilation", func(c *DTMConfig) { c.TimeDilation = 1e300 }},
		{"TimeDilation", func(c *DTMConfig) { c.TimeDilation = math.Nextafter(maxTimeDilation, inf) }},
	}
	for i, tc := range bad {
		c := DefaultDTMConfig()
		tc.set(&c)
		var ce *check.Error
		if err := c.Validate(); !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("case %d: %+v gave %v, want a *check.Error on %s", i, c, err, tc.field)
		}
	}
}

// TestDTMReportedRunMatchesPlain: a reported DTM run is the plain run
// sampled every control period, and a sampled run ends bit-identical to
// an unsampled one, so its measurement equals the plain rig's field for
// field except DTM. It checks a one-island chip and the two islands of
// the big/little chip, at nominal and at a low ladder point.
func TestDTMReportedRunMatchesPlain(t *testing.T) {
	biglittle, err := scenario.LoadFile("../../examples/scenarios/biglittle.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*scenario.Scenario{nil, biglittle} {
		plain, err := NewRigFromScenario(sc, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		governed := plain.Clone()
		dc := DefaultDTMConfig()
		governed.DTM = &dc
		for _, a := range testApps(t) {
			for _, n := range []int{1, 2, 4, 8, 16} {
				if !a.RunsOn(n) {
					continue
				}
				for _, p := range []dvfs.OperatingPoint{plain.Table.Nominal(), plain.Table.PointFor(1.4e9)} {
					want, err := plain.RunApp(a, n, p)
					if err != nil {
						t.Fatal(err)
					}
					got, err := governed.RunApp(a, n, p)
					if err != nil {
						t.Fatal(err)
					}
					if got.DTM == nil {
						t.Fatalf("%s/%d at %v: no DTM stats", a.Name, n, p)
					}
					got.DTM = nil
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s on %s/%d at %v:\n got %+v\nwant %+v", plain.Scenario.Name, a.Name, n, p, got, want)
					}
				}
			}
		}
	}
}

// TestDTMSamplesFollowThePeriod: a reported DTM run is sampled every
// control period, dtmReferenceS·Scale/Intervals of modelled time. Every
// interval but the last spans at least one period, so the sample count
// is bounded by the run's length in periods, and the run's DTM stats are
// the governor's replay of exactly those samples.
func TestDTMSamplesFollowThePeriod(t *testing.T) {
	rig := testRig(t)
	ctx := context.Background()
	for _, tc := range []struct {
		app       string
		n         int
		intervals int
	}{
		{"FFT", 1, 64}, {"LU", 4, 64}, {"Ocean", 16, 64}, {"Radix", 8, 16}, {"FMM", 2, 256},
	} {
		a := app(t, tc.app)
		dc := DefaultDTMConfig()
		dc.Intervals = tc.intervals
		rig.DTM = &dc
		p := rig.Table.Nominal()
		period := dc.periodCycles(rig.Scale, p)
		if want := dtmReferenceS * rig.Scale / float64(tc.intervals) * p.Freq; period != want {
			t.Fatalf("%s: period %g cycles, want %g", tc.app, period, want)
		}
		cfg := rig.runConfig(ctx, a, tc.n, p, rig.Seed)
		cfg.SampleCycles = period
		res, err := cmp.Run(a.Program(rig.Scale), cfg)
		if err != nil {
			t.Fatal(err)
		}
		samples := res.Samples
		for i, s := range samples[:len(samples)-1] {
			if s.EndCycle-s.StartCycle < period {
				t.Fatalf("%s/%d: interval %d spans %g cycles, under the %g-cycle period",
					tc.app, tc.n, i, s.EndCycle-s.StartCycle, period)
			}
		}
		periods := res.Cycles / period
		if k := float64(len(samples)); k > periods+1 || k < periods*3/4 {
			t.Errorf("%s/%d: %d samples over %.1f periods", tc.app, tc.n, len(samples), periods)
		}
		want, err := rig.governDTM(dc, tc.n, p, samples)
		if err != nil {
			t.Fatal(err)
		}
		m, err := rig.RunApp(a, tc.n, p)
		if err != nil {
			t.Fatal(err)
		}
		if *m.DTM != *want {
			t.Errorf("%s/%d: DTM stats %+v, want the replay of the period's samples %+v", tc.app, tc.n, *m.DTM, *want)
		}
	}
}

func TestDTMStepDownWalksLadder(t *testing.T) {
	rig := testRig(t)
	top := rig.Table.Nominal()
	one := stepDownFrom(rig.Table, top.Freq, 1)
	if one.Freq >= top.Freq {
		t.Fatalf("one step down from %v gave %v", top, one)
	}
	two := stepDownFrom(rig.Table, top.Freq, 2)
	if two.Freq >= one.Freq {
		t.Fatalf("two steps down %v not below one step %v", two, one)
	}
	// From the ladder floor there is nowhere to go.
	floor := rig.Table.Min()
	if got := stepDownFrom(rig.Table, floor.Freq, 3); got != floor {
		t.Fatalf("step down from the floor gave %v", got)
	}
	// Off-ladder frequencies quantize down first.
	mid := (one.Freq + top.Freq) / 2
	if got := stepDownFrom(rig.Table, mid, 1); got != one {
		t.Fatalf("step down from off-ladder %g gave %v, want %v", mid, got, one)
	}
}

func TestDTMScenarioSummary(t *testing.T) {
	rig := testRig(t)
	cfg := DefaultDTMConfig()
	rig.DTM = &cfg
	res, err := rig.ScenarioI(app(t, "Water-Nsq"), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.DTM == nil {
		t.Fatal("scenario carries no DTM summary")
	}
	if want := 1 + len(res.Rows); res.DTM.Runs != want {
		t.Errorf("summary covers %d runs, want %d", res.DTM.Runs, want)
	}
	if res.DTM.PeakTempC <= phys.AmbientTempC {
		t.Errorf("peak temperature %g implausible", res.DTM.PeakTempC)
	}
}

func TestDTMActsOnFaultySensorReadings(t *testing.T) {
	// A hot-side stuck/noisy sensor can make the controller throttle on a
	// reading that exceeds the true temperature; the recorded peaks keep
	// the two apart.
	rig := overclockedRig(t)
	cfg := DefaultDTMConfig()
	rig.DTM = &cfg
	inj, err := faults.New(faults.Config{Seed: 11, SensorNoiseSigmaC: 4})
	if err != nil {
		t.Fatal(err)
	}
	rig.Faults = inj
	m, err := rig.RunApp(app(t, "LU"), 2, rig.Table.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	st := m.DTM
	if st == nil {
		t.Fatal("no DTM stats attached")
	}
	if st.Emergencies == 0 {
		t.Error("noisy overclocked stress run tripped no emergencies")
	}
	if st.PeakReadingC == st.PeakTempC {
		t.Error("noisy sensors should decouple reading peak from true peak")
	}
}

// throttleDigest is the sha256 of throttleStatsJSON's output: chip-wide
// DTMStats from overclocked runs that trip emergencies, with and without
// sensor noise and DVFS-transition failures. The default-trip goldens
// never throttle, so this is what pins the controller's throttle and
// recovery path.
const throttleDigest = "8627ade0277bf3b5740cbf43d8cddd2f70908e6229e7507e0ec556736365f462"

// throttleStatsJSON replays DTM at a 60 °C trip on overclockedRig for a
// small app × N grid, fault-free and under a sensor-noise/DVFS-failure
// spec, and returns every run's stats as JSON, the run count, and how
// many runs tripped at least one emergency.
func throttleStatsJSON(t *testing.T) (stats []byte, runs, tripped int) {
	t.Helper()
	var all []*DTMStats
	for _, spec := range []*faults.Config{nil, {Seed: 5, SensorNoiseSigmaC: 2, DVFSFailProb: 0.2}} {
		rig := overclockedRig(t)
		cfg := DefaultDTMConfig()
		cfg.TripC = 60
		rig.DTM = &cfg
		if spec != nil {
			inj, err := faults.New(*spec)
			if err != nil {
				t.Fatal(err)
			}
			rig.Faults = inj
		}
		for _, name := range []string{"LU", "FMM", "Ocean", "Radix", "Water-Sp"} {
			for _, n := range []int{1, 2, 4, 8} {
				m, err := rig.RunApp(app(t, name), n, rig.Table.Nominal())
				if err != nil {
					t.Fatal(err)
				}
				if m.DTM.Emergencies > 0 {
					tripped++
				}
				all = append(all, m.DTM)
			}
		}
	}
	stats, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return stats, len(all), tripped
}

// TestDTMThrottleDigestPinned pins the throttling controller bit for bit.
func TestDTMThrottleDigestPinned(t *testing.T) {
	b, runs, tripped := throttleStatsJSON(t)
	if tripped == 0 {
		t.Fatal("no run tripped an emergency; the pin exercises nothing")
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != throttleDigest {
		t.Errorf("throttling DTM digest = %s, want %s (%d of %d runs tripped)", got, throttleDigest, tripped, runs)
	}
}

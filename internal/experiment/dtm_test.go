package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"testing"

	"cmppower/internal/faults"
	"cmppower/internal/phys"
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
	rig.DTM = &DTMConfig{} // zero value: runDTM substitutes the defaults
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
	bad := []DTMConfig{
		{TripC: phys.AmbientTempC, HysteresisC: 1, StepDown: 1, Intervals: 8, TimeDilation: 1},
		{TripC: 96, HysteresisC: -1, StepDown: 1, Intervals: 8, TimeDilation: 1},
		{TripC: 96, HysteresisC: 1, StepDown: 0, Intervals: 8, TimeDilation: 1},
		{TripC: 96, HysteresisC: 1, StepDown: 1, Intervals: 1, TimeDilation: 1},
		{TripC: 96, HysteresisC: 1, StepDown: 1, Intervals: 8, TimeDilation: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: accepted %+v", i, c)
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
const throttleDigest = "08fcd4af09e9e41829960a474e488a535a663001da7c50a118ec74b1f21cda35"

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

package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"cmppower"
	"cmppower/internal/cache"
	"cmppower/internal/experiment"
	"cmppower/internal/mem"
	"cmppower/internal/power"
	"cmppower/internal/workload"
)

// Doctor exit codes. The resilience section uses distinct codes so CI can
// tell which safety net tore without parsing output; the baseline checks
// share code 1 as before. Code 10 belonged to a retired check and stays
// unused, so the codes after it keep their meaning.
const (
	exitDoctorBaseline    = 1  // any baseline model/simulator check failed
	exitDoctorFaultInject = 2  // fault-injector round-trip broken
	exitDoctorDTM         = 3  // DTM failed to contain a thermal emergency
	exitDoctorCancel      = 4  // context cancellation did not stop a run
	exitDoctorParallel    = 5  // parallel sweep diverged from serial sweep
	exitDoctorBatched     = 6  // batched engine diverged from the reference loop
	exitDoctorObs         = 7  // metric snapshot / manifest differed across -j
	exitDoctorServe       = 8  // HTTP serving layer diverged from the library
	exitDoctorRouter      = 9  // fleet router diverged, dropped, or failed to hedge
	exitDoctorSurrogate   = 11 // surrogate fast path leaked into exact mode, or broke its bound
	exitDoctorScenario    = 12 // scenario IR broke baseline fidelity, identity, or 3D physics
)

// doctorChecks is the doctor's table in report order. Scripts match on
// each check's name and exit code, and TestDoctor runs every entry under
// go test, so the doctor and the test suite hold one implementation of
// each check.
var doctorChecks = []struct {
	name string
	fn   func() error
	code int
}{
	{"simulator determinism", checkDeterminism, exitDoctorBaseline},
	{"MESI coherence under fuzz", checkCoherence, exitDoctorBaseline},
	{"power calibration at the design point", checkCalibration, exitDoctorBaseline},
	{"analytic Scenario II shape", checkAnalyticShape, exitDoctorBaseline},
	{"memory-gap effect present", checkMemoryGap, exitDoctorBaseline},
	{"fault injector round-trip", checkFaultInjector, exitDoctorFaultInject},
	{"DTM contains thermal emergency", checkDTMTrip, exitDoctorDTM},
	{"context cancel stops a sweep", checkContextCancel, exitDoctorCancel},
	{"parallel sweep matches serial", checkParallelDeterminism, exitDoctorParallel},
	{"batched engine matches reference loop", checkBatchedEngine, exitDoctorBatched},
	{"manifest identical across -j", checkObsDeterminism, exitDoctorObs},
	{"serve round-trip deterministic", checkServe, exitDoctorServe},
	{"router fleet invisible under faults", checkRouter, exitDoctorRouter},
	{"surrogate path exact-invisible and bound-honest", checkSurrogate, exitDoctorSurrogate},
	{"scenario IR faithful, content-addressed, 3D-sane", checkScenario, exitDoctorScenario},
}

// runDoctor runs the repository's end-to-end self-checks: determinism,
// coherence fuzzing, calibration, analytic sanity, and the resilience
// layer (fault injection, DTM, cancellation). It exits non-zero on
// failure — baseline failures exit 1, resilience failures exit with that
// check's distinct code — making it suitable for CI smoke checks.
func runDoctor(args []string) error {
	fs := flag.NewFlagSet("doctor", flag.ExitOnError)
	jobs := fs.Int("j", 0, "check worker count; 0 = GOMAXPROCS (report order is fixed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every check builds its own rigs and injectors, so they fan out over
	// the worker pool; results are collected and reported in list order.
	failures := make([]error, len(doctorChecks))
	if err := experiment.RunIndexed(context.Background(), *jobs, len(doctorChecks), func(i int) {
		failures[i] = doctorChecks[i].fn()
	}); err != nil {
		return err
	}
	exit, nfail := 0, 0
	for i, c := range doctorChecks {
		err := failures[i]
		if err == nil {
			fmt.Printf("ok   %s\n", c.name)
			continue
		}
		fmt.Printf("FAIL %-42s %v\n", c.name, err)
		nfail++
		// The first distinct resilience code wins over the shared
		// baseline code.
		if exit == 0 || (exit == exitDoctorBaseline && c.code != exitDoctorBaseline) {
			exit = c.code
		}
	}
	if exit != 0 {
		// The code travels as an error so main's profile teardown runs.
		return &exitError{code: exit, msg: fmt.Sprintf("%d check(s) failed", nfail)}
	}
	return nil
}

// checkBatchedEngine runs a smoke workload through the fused fast path
// and the event-at-a-time reference loop and requires identical results —
// the fast path's bit-identity guarantee, self-verifying in the field.
// The workload deliberately mixes compute, memory, barriers, and critical
// sections (FFT has all four) at a core count where arbitration matters.
// It runs twice: unsampled, and sampled into 64 intervals as a governed
// DTM run is, where the fused loop defers compute charges and every
// interval sample must match too.
func checkBatchedEngine() error {
	run := func(unbatched bool, sampleCycles float64) (*cmppower.SimResult, error) {
		return simulateFFT(0.1, func(cfg *cmppower.SimConfig) {
			cfg.Unbatched = unbatched
			cfg.SampleCycles = sampleCycles
		})
	}
	var sampleCycles float64
	for _, mode := range []string{"unsampled", "sampled"} {
		fast, err := run(false, sampleCycles)
		if err != nil {
			return err
		}
		ref, err := run(true, sampleCycles)
		if err != nil {
			return err
		}
		if fast.Cycles != ref.Cycles || fast.Instructions != ref.Instructions ||
			!reflect.DeepEqual(fast.PerCore, ref.PerCore) ||
			!reflect.DeepEqual(fast.Activity, ref.Activity) ||
			!reflect.DeepEqual(fast.CacheStats, ref.CacheStats) ||
			!reflect.DeepEqual(fast.Samples, ref.Samples) {
			return fmt.Errorf("batched engine diverged (%s): %g cyc / %d instr / %d samples vs %g cyc / %d instr / %d samples",
				mode, fast.Cycles, fast.Instructions, len(fast.Samples), ref.Cycles, ref.Instructions, len(ref.Samples))
		}
		sampleCycles = ref.Cycles / 64
	}
	return nil
}

// simulateFFT simulates FFT at the given scale on 4 cores at the 65 nm
// nominal point, after tune (if non-nil) adjusts the config: the run that
// checks 1 and 10 repeat and compare.
func simulateFFT(scale float64, tune func(*cmppower.SimConfig)) (*cmppower.SimResult, error) {
	app, err := cmppower.AppByName("FFT")
	if err != nil {
		return nil, err
	}
	tab, err := cmppower.NewDVFSTable(cmppower.Tech65())
	if err != nil {
		return nil, err
	}
	cfg := cmppower.DefaultSimConfig(4, tab.Nominal())
	cfg.Core = app.CoreConfig()
	if tune != nil {
		tune(&cfg)
	}
	return cmppower.Simulate(app.Program(scale), cfg)
}

// sweepApps are the applications of the sweep checks 9 and 11 share.
const sweepApps = "FFT,LU,Radix"

// sweepRig returns a fresh rig for the sweep checks 9 and 11 share:
// seed 11 at scale 0.1 and, when faulty, an injector seeded 11.
// Without DTM a sweep never reads a sensor or requests a DVFS transition,
// so only the cache ECC faults draw from the injector's streams during
// the sweep; they are what make a fault-stream mix-up between work
// items visible.
func sweepRig(faulty bool) (*experiment.Rig, error) {
	rig, err := experiment.NewRig(0.1)
	if err != nil {
		return nil, err
	}
	rig.Seed = 11
	if faulty {
		rig.Faults, err = cmppower.NewFaultInjector(cmppower.FaultConfig{
			Seed: 11, SensorNoiseSigmaC: 1.5, DVFSFailProb: 0.05, CacheTransientProb: 0.002,
		})
	}
	return rig, err
}

// sweep runs Scenario I of the named apps over N ∈ {1, 2, 4} on rig with
// the default retry policy.
func sweep(rig *experiment.Rig, apps string, cfg cmppower.SweepConfig) ([]cmppower.SweepOutcome, error) {
	list, err := appsFor(apps)
	if err != nil {
		return nil, err
	}
	cfg.Retry = cmppower.DefaultRetryConfig()
	return rig.SweepScenarioIWith(context.Background(), list, []int{1, 2, 4}, cfg)
}

// checkObsDeterminism runs the same sweep with metrics enabled at worker
// counts 1, 4, and 16, fault-free and under faults, and requires the
// resulting run manifests to agree byte for byte on their canonical half:
// the observability layer's determinism guarantee (integer-only
// concurrent publishes, volatile wall-clock values excluded from the
// digest). Extends check 9 from sweep outcomes to the metric snapshot
// itself.
func checkObsDeterminism() error {
	manifest := func(faulty bool, workers int) ([]byte, error) {
		rig, err := sweepRig(faulty)
		if err != nil {
			return nil, err
		}
		reg := cmppower.NewMetricsRegistry()
		rig.Obs = reg
		outs, err := sweep(rig, sweepApps, cmppower.SweepConfig{Workers: workers})
		if err != nil {
			return nil, err
		}
		var modeled float64
		for _, o := range outs {
			switch {
			case o.Err == nil:
				modeled += o.I.ModeledSeconds()
			case !faulty:
				return nil, fmt.Errorf("fault-free sweep failed %s: %w", o.App, o.Err)
			}
		}
		m := cmppower.NewRunManifest("doctor", reg)
		m.Config = map[string]string{"apps": sweepApps, "counts": "1,2,4"}
		m.Seed = rig.Seed
		m.ModeledSeconds = modeled
		m.SetVolatile(reg, 0, workers)
		return m.CanonicalBytes()
	}
	for _, faulty := range []bool{false, true} {
		ref, err := manifest(faulty, 1)
		if err != nil {
			return err
		}
		for _, workers := range []int{4, 16} {
			got, err := manifest(faulty, workers)
			if err != nil {
				return err
			}
			if !bytes.Equal(ref, got) {
				return fmt.Errorf("faulty=%t: manifest canonical bytes differ between -j 1 and -j %d", faulty, workers)
			}
		}
	}
	return nil
}

// checkParallelDeterminism runs a small faulty sweep serially and across a
// worker pool and requires bit-identical outcomes: the parallel engine's
// central guarantee.
func checkParallelDeterminism() error {
	var outs [2][]cmppower.SweepOutcome
	for i, workers := range []int{1, 4} {
		rig, err := sweepRig(true)
		if err != nil {
			return err
		}
		if outs[i], err = sweep(rig, sweepApps, cmppower.SweepConfig{Workers: workers}); err != nil {
			return err
		}
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		return fmt.Errorf("sweep outcomes differ between -j 1 and -j 4")
	}
	return nil
}

// checkFaultInjector round-trips the injector: the same seed must yield a
// byte-identical fault schedule, a different seed must not, and a
// zero-rate injector must not perturb a simulation.
func checkFaultInjector() error {
	mk := func(seed uint64) (*cmppower.FaultInjector, error) {
		return cmppower.NewFaultInjector(cmppower.FaultConfig{
			Seed: seed, SensorNoiseSigmaC: 2, DVFSFailProb: 0.3, CacheTransientProb: 0.01,
		})
	}
	exercise := func(inj *cmppower.FaultInjector) {
		for i := 0; i < 256; i++ {
			inj.ReadSensor(i%16, 70)
			inj.DVFSTransitionFails()
			inj.CacheRetryCycles(i%16, uint64(i)*64)
		}
	}
	a, err := mk(101)
	if err != nil {
		return err
	}
	b, err := mk(101)
	if err != nil {
		return err
	}
	c, err := mk(102)
	if err != nil {
		return err
	}
	exercise(a)
	exercise(b)
	exercise(c)
	if a.Digest() != b.Digest() {
		return fmt.Errorf("same seed produced different fault schedules")
	}
	// A digest's first line names the seed, so compare what follows it.
	_, schedA, _ := strings.Cut(a.Digest(), "\n")
	_, schedC, _ := strings.Cut(c.Digest(), "\n")
	if schedA == schedC {
		return fmt.Errorf("different seeds produced identical fault schedules")
	}
	// Zero-rate injector: fault-free results bit for bit.
	rigPlain, err := experiment.NewRig(0.1)
	if err != nil {
		return err
	}
	rigWired, err := experiment.NewRig(0.1)
	if err != nil {
		return err
	}
	if rigWired.Faults, err = cmppower.NewFaultInjector(cmppower.FaultConfig{Seed: 7}); err != nil {
		return err
	}
	app, err := cmppower.AppByName("FFT")
	if err != nil {
		return err
	}
	m1, err := rigPlain.RunApp(app, 2, rigPlain.Table.Nominal())
	if err != nil {
		return err
	}
	m2, err := rigWired.RunApp(app, 2, rigWired.Table.Nominal())
	if err != nil {
		return err
	}
	if *m1 != *m2 {
		return fmt.Errorf("zero-rate injector perturbed a run: %+v vs %+v", m1, m2)
	}
	return nil
}

// checkDTMTrip overclocks the chip 30% past its calibrated envelope and
// verifies the DTM controller trips and keeps the sensed die temperature
// at or under the 100 °C limit.
func checkDTMTrip() error {
	rig, err := experiment.NewRig(0.15)
	if err != nil {
		return err
	}
	if rig.Table, err = rig.Table.WithOverclock(1.3); err != nil {
		return err
	}
	dtm := cmppower.DefaultDTMConfig()
	rig.DTM = &dtm
	app, err := cmppower.AppByName("LU")
	if err != nil {
		return err
	}
	m, err := rig.RunApp(app, 2, rig.Table.Nominal())
	if err != nil {
		return err
	}
	st := m.DTM
	if st == nil {
		return fmt.Errorf("no DTM stats attached")
	}
	if st.Emergencies == 0 {
		return fmt.Errorf("overclocked stress run tripped no emergencies")
	}
	if st.PeakReadingC > cmppower.MaxDieTempC {
		return fmt.Errorf("DTM let the die reach %.1f °C > %.0f °C limit", st.PeakReadingC, float64(cmppower.MaxDieTempC))
	}
	if st.ThrottleResidency <= 0 || st.PerfLossFrac <= 0 {
		return fmt.Errorf("throttling left no metric trace: %+v", st)
	}
	return nil
}

// checkContextCancel verifies a cancelled context aborts a run within a
// second, surfaced as a *RunError at the simulate step, and aborts a
// scenario too.
func checkContextCancel() error {
	rig, err := experiment.NewRig(0.15)
	if err != nil {
		return err
	}
	app, err := cmppower.AppByName("Ocean")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = rig.RunAppCtx(ctx, app, 4, rig.Table.Nominal())
	if !errors.Is(err, context.Canceled) {
		return fmt.Errorf("cancelled run returned %v, want context.Canceled in the chain", err)
	}
	var re *cmppower.RunError
	if !errors.As(err, &re) || re.Step != "simulate" {
		return fmt.Errorf("cancellation not wrapped in *RunError at the simulate step: %v", err)
	}
	if el := time.Since(start); el > time.Second {
		return fmt.Errorf("cancellation took %v", el)
	}
	if _, err := rig.ScenarioICtx(ctx, app, []int{1, 2}); !errors.Is(err, context.Canceled) {
		return fmt.Errorf("cancelled scenario returned %v", err)
	}
	return nil
}

func checkDeterminism() error {
	a, err := simulateFFT(0.2, nil)
	if err != nil {
		return err
	}
	b, err := simulateFFT(0.2, nil)
	if err != nil {
		return err
	}
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		return fmt.Errorf("two identical runs diverged: %g/%d vs %g/%d",
			a.Cycles, a.Instructions, b.Cycles, b.Instructions)
	}
	return nil
}

func checkCoherence() error {
	for _, prefetch := range []bool{false, true} {
		cfg := cache.DefaultConfig(8, 3.2e9)
		cfg.PrefetchNextLine = prefetch
		cfg.L1 = cache.Geometry{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2}
		cfg.L2 = cache.Geometry{SizeBytes: 16 << 10, LineBytes: 128, Ways: 2}
		h, err := cache.New(cfg, mem.Default())
		if err != nil {
			return err
		}
		rng := workload.NewRNG(0xD0C)
		now := 0.0
		for i := 0; i < 20000; i++ {
			now = h.Access(rng.Intn(8), uint64(rng.Intn(128))*64, rng.Float64() < 0.4, now)
			if i%1000 == 0 {
				if err := h.CheckCoherence(); err != nil {
					return fmt.Errorf("prefetch=%v: %w", prefetch, err)
				}
			}
		}
		if err := h.CheckCoherence(); err != nil {
			return fmt.Errorf("prefetch=%v: %w", prefetch, err)
		}
	}
	return nil
}

// checkCalibration evaluates the max-power microbenchmark on the
// calibrated 16-core rig, which should put the die close to the 100 °C
// design temperature. Not exactly: Evaluate adds the temperature-coupled
// static power on top of the calibration's linear split, and gate
// residuals heat other blocks slightly.
func checkCalibration() error {
	rig, err := experiment.NewRig(0.1)
	if err != nil {
		return err
	}
	op := rig.Table.Nominal()
	const cycles = 1 << 18
	act := power.MaxActivity(16, 1, cycles)
	res, err := rig.Meter.Evaluate(rig.FP, rig.TM, act, float64(cycles)/op.Freq, cycles, op, 1)
	if err != nil {
		return err
	}
	if res.PeakTempC < 80 || res.PeakTempC > 120 {
		return fmt.Errorf("microbenchmark peak %g °C, want near 100", res.PeakTempC)
	}
	return nil
}

func checkAnalyticShape() error {
	for _, tech := range []cmppower.Technology{cmppower.Tech130(), cmppower.Tech65()} {
		m, err := cmppower.NewAnalyticModel(tech)
		if err != nil {
			return err
		}
		best, err := m.PeakSpeedup(1)
		if err != nil {
			return err
		}
		if best.N < 8 || best.N > 20 || best.Speedup < 3 || best.Speedup > 6 {
			return fmt.Errorf("%s: peak %.2f at N=%d outside the calibrated range", tech.Name, best.Speedup, best.N)
		}
	}
	return nil
}

func checkMemoryGap() error {
	rig, err := experiment.NewRig(0.2)
	if err != nil {
		return err
	}
	app, err := cmppower.AppByName("Radix")
	if err != nil {
		return err
	}
	res, err := rig.ScenarioI(app, []int{1, 4})
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("no rows")
	}
	if s := res.Rows[0].ActualSpeedup; s < 1.05 || math.IsNaN(s) {
		return fmt.Errorf("memory-gap speedup %g, want > 1.05", s)
	}
	return nil
}

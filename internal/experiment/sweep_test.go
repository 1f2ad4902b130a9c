package experiment

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"cmppower/internal/faults"
	"cmppower/internal/splash"
)

// fastRetry keeps the retry tests from sleeping.
func fastRetry(attempts int) RetryConfig {
	return RetryConfig{Attempts: attempts, Backoff: time.Microsecond, MaxBackoff: time.Millisecond}
}

func sweepApps(t *testing.T) []splash.App {
	t.Helper()
	return []splash.App{app(t, "FFT"), app(t, "Radix"), app(t, "Water-Nsq")}
}

func injector(t *testing.T, cfg faults.Config) *faults.Injector {
	t.Helper()
	inj, err := faults.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestSweepCompletesPastHardFailures(t *testing.T) {
	rig := testRig(t)
	// Every run fails hard: the sweep must still visit every app and
	// report a typed error for each, never abort the loop.
	rig.Faults = injector(t, faults.Config{Seed: 3, RunHardProb: 1})
	apps := sweepApps(t)
	out, err := rig.SweepScenarioIWith(context.Background(), apps, []int{1, 2}, SweepConfig{Retry: fastRetry(2), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(apps) {
		t.Fatalf("sweep visited %d of %d apps", len(out), len(apps))
	}
	for _, o := range out {
		var re *RunError
		if !errors.As(o.Err, &re) {
			t.Fatalf("%s: want *RunError, got %T: %v", o.App, o.Err, o.Err)
		}
		if re.App != o.App || re.Step != "inject" || re.Seed != rig.Seed {
			t.Errorf("%s: provenance %+v", o.App, re)
		}
		var he *faults.HardError
		if !errors.As(o.Err, &he) {
			t.Errorf("%s: cause is not a hard fault: %v", o.App, o.Err)
		}
		if faults.IsTransient(o.Err) {
			t.Errorf("%s: hard fault classified transient", o.App)
		}
		if o.Attempts != 1 {
			t.Errorf("%s: hard fault retried (%d attempts)", o.App, o.Attempts)
		}
		if o.I != nil {
			t.Errorf("%s: failed outcome carries a result", o.App)
		}
	}
}

func TestSweepMixedFailuresKeepHealthyApps(t *testing.T) {
	rig := testRig(t)
	// A moderate hard-failure rate with a fixed seed: deterministic, some
	// apps die, the rest complete. (The rates below were checked against
	// this seed; the schedule is reproducible by construction.)
	rig.Faults = injector(t, faults.Config{Seed: 5, RunHardProb: 0.25})
	apps := sweepApps(t)
	out, err := rig.SweepScenarioIIWith(context.Background(), apps, []int{1, 2}, SweepConfig{Retry: fastRetry(2), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(apps) {
		t.Fatalf("sweep visited %d of %d apps", len(out), len(apps))
	}
	var ok, failed int
	for _, o := range out {
		if o.Err != nil {
			failed++
			var re *RunError
			if !errors.As(o.Err, &re) {
				t.Errorf("%s: untyped failure %v", o.App, o.Err)
			}
			continue
		}
		ok++
		if o.II == nil || len(o.II.Rows) == 0 {
			t.Errorf("%s: successful outcome without rows", o.App)
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("want a mix of outcomes for this seed, got %d ok / %d failed", ok, failed)
	}
}

func TestSweepRetriesTransientFailures(t *testing.T) {
	rig := testRig(t)
	rig.Faults = injector(t, faults.Config{Seed: 9, RunTransientProb: 0.3})
	apps := sweepApps(t)
	out, err := rig.SweepScenarioIWith(context.Background(), apps, []int{1, 2}, SweepConfig{Retry: fastRetry(10), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, o := range out {
		if o.Err != nil {
			t.Fatalf("%s: transient faults exhausted %d attempts: %v", o.App, o.Attempts, o.Err)
		}
		if o.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no app needed a retry; transient rate too low for this seed")
	}
}

func TestSweepStopsOnCancelledContext(t *testing.T) {
	rig := testRig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := rig.SweepScenarioIWith(ctx, sweepApps(t), []int{1, 2}, SweepConfig{Retry: fastRetry(1), Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("cancelled sweep still produced %d outcomes", len(out))
	}
}

func TestZeroFaultConfigIsBitIdentical(t *testing.T) {
	plain := testRig(t)
	wired := testRig(t)
	// An injector with every rate at zero must not perturb anything: the
	// measurement is the same struct, field for field.
	wired.Faults = injector(t, faults.Config{Seed: 42})
	a := app(t, "FFT")
	for _, n := range []int{1, 4} {
		m1, err := plain.RunApp(a, n, plain.Table.Nominal())
		if err != nil {
			t.Fatal(err)
		}
		m2, err := wired.RunApp(a, n, wired.Table.Nominal())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("N=%d: zero-fault run diverged:\nplain %+v\nwired %+v", n, m1, m2)
		}
	}
	if got := wired.Faults.Injected(); got != 0 {
		t.Errorf("zero-rate injector reported %d injections", got)
	}
}

func TestSameSeedSameFaultMetrics(t *testing.T) {
	run := func() (*Measurement, string) {
		rig := testRig(t)
		rig.Faults = injector(t, faults.Config{Seed: 77, CacheTransientProb: 1e-2, SensorNoiseSigmaC: 2})
		m, err := rig.RunApp(app(t, "FFT"), 4, rig.Table.Nominal())
		if err != nil {
			t.Fatal(err)
		}
		return m, rig.Faults.Digest()
	}
	m1, d1 := run()
	m2, d2 := run()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", m1, m2)
	}
	if d1 != d2 {
		t.Fatalf("fault schedules differ:\n%s\n%s", d1, d2)
	}
	if m1.ECCRetries == 0 {
		t.Error("cache fault rate injected nothing; test exercises no faults")
	}
}

func TestPanicBecomesTypedRunError(t *testing.T) {
	rig := testRig(t)
	rig.Meter = nil // nil meter panics inside the evaluate step
	_, err := rig.RunApp(app(t, "FFT"), 2, rig.Table.Nominal())
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %T: %v", err, err)
	}
	if re.Step != "panic" || re.App != "FFT" || re.N != 2 {
		t.Errorf("provenance %+v", re)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cause is not a *PanicError: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
}

func TestAttemptSemantics(t *testing.T) {
	ctx := context.Background()
	rc := fastRetry(3)
	calls := 0
	// Transient errors burn all attempts.
	n, err := attempt(ctx, rc, func() error {
		calls++
		return &faults.TransientError{App: "x", N: 1, Seq: int64(calls)}
	})
	if n != 3 || !faults.IsTransient(err) {
		t.Fatalf("attempts=%d err=%v", n, err)
	}
	// Non-transient errors do not retry.
	n, err = attempt(ctx, rc, func() error { return errors.New("hard") })
	if n != 1 || err == nil {
		t.Fatalf("attempts=%d err=%v", n, err)
	}
	// Panics are captured, not retried.
	n, err = attempt(ctx, rc, func() error { panic("boom") })
	var pe *PanicError
	if n != 1 || !errors.As(err, &pe) {
		t.Fatalf("attempts=%d err=%v", n, err)
	}
	// Success on a later attempt stops the loop.
	calls = 0
	n, err = attempt(ctx, rc, func() error {
		if calls++; calls < 2 {
			return &faults.TransientError{App: "x", N: 1, Seq: 1}
		}
		return nil
	})
	if n != 2 || err != nil {
		t.Fatalf("attempts=%d err=%v", n, err)
	}
}

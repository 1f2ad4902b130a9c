package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"cmppower/internal/dvfs"
	"cmppower/internal/faults"
)

// RunError is the typed failure of one simulated run. It carries the run's
// full provenance so a failure deep inside a 12-app × 5-core-count sweep
// can be reported (and reproduced) without re-running the sweep.
type RunError struct {
	App   string
	N     int
	Point dvfs.OperatingPoint
	Seed  uint64
	// Step names the stage that failed: "inject", "simulate", "evaluate",
	// "dtm", or "panic".
	Step string
	Err  error
}

// Error implements error.
func (e *RunError) Error() string {
	return fmt.Sprintf("experiment: %s on %d cores at %s (seed %d) failed during %s: %v",
		e.App, e.N, e.Point, e.Seed, e.Step, e.Err)
}

// Unwrap exposes the cause to errors.Is/As (e.g. faults.IsTransient).
func (e *RunError) Unwrap() error { return e.Err }

// PanicError preserves a panic recovered inside the experiment harness as
// an ordinary error value, with the goroutine stack captured at the panic
// site for postmortem debugging.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// RetryConfig bounds the sweep runner's retry loop. Only failures that are
// transient (faults.IsTransient) are retried; hard failures, cancellation,
// and genuine simulator errors surface immediately.
type RetryConfig struct {
	// Attempts is the total number of tries per scenario (default 3).
	Attempts int
	// Backoff is the delay before the second attempt; it doubles on each
	// further retry (default 10 ms). The wait honors context cancellation.
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 1 s).
	MaxBackoff time.Duration
}

// DefaultRetryConfig returns the standard 3-attempt exponential backoff.
func DefaultRetryConfig() RetryConfig {
	return RetryConfig{Attempts: 3, Backoff: 10 * time.Millisecond, MaxBackoff: time.Second}
}

func (rc RetryConfig) withDefaults() RetryConfig {
	def := DefaultRetryConfig()
	if rc.Attempts < 1 {
		rc.Attempts = def.Attempts
	}
	if rc.Backoff <= 0 {
		rc.Backoff = def.Backoff
	}
	if rc.MaxBackoff <= 0 {
		rc.MaxBackoff = def.MaxBackoff
	}
	return rc
}

// protect runs fn, converting a panic into a *PanicError instead of
// unwinding the sweep.
func protect(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// attempt runs fn under panic protection with bounded retry-with-backoff
// for transient failures. It returns the number of attempts made and the
// final error (nil on success). Cancellation during a backoff wait joins
// the context error with the transient failure that was about to be
// retried, so errors.Is(err, context.Canceled) and errors.As for the
// *RunError provenance both keep working.
func attempt(ctx context.Context, rc RetryConfig, fn func() error) (int, error) {
	delay := rc.Backoff
	for attempts := 1; ; attempts++ {
		err := protect(fn)
		if err == nil || !faults.IsTransient(err) || attempts >= rc.Attempts {
			return attempts, err
		}
		select {
		case <-ctx.Done():
			return attempts, errors.Join(ctx.Err(), err)
		case <-time.After(delay):
		}
		if delay *= 2; delay > rc.MaxBackoff {
			delay = rc.MaxBackoff
		}
	}
}

// SweepOutcome is one application's result in a sweep: either a scenario
// result (I or II, matching the sweep that produced it) or the error that
// exhausted its retries. Attempts records how many tries were made.
type SweepOutcome struct {
	App      string
	Attempts int
	I        *ScenarioIResult
	II       *ScenarioIIResult
	Err      error
}

package mem

import (
	"errors"
	"math"
	"testing"

	"cmppower/internal/check"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0); err == nil {
		t.Error("accepted zero latency")
	}
	if _, err := New(75e-9, -1); err == nil {
		t.Error("accepted negative occupancy")
	}
	if _, err := New(75e-9, 100e-9); err == nil {
		t.Error("accepted occupancy above latency")
	}
}

func TestDefaultMatchesTable1(t *testing.T) {
	d := Default()
	if d.Latency() != 75e-9 {
		t.Errorf("latency %g, want 75 ns (Table 1)", d.Latency())
	}
}

func TestAccessLatencyAndQueueing(t *testing.T) {
	d, err := New(75e-9, 6e-9)
	if err != nil {
		t.Fatal(err)
	}
	// First access: no queueing.
	if got := d.Access(1e-6); math.Abs(got-(1e-6+75e-9)) > 1e-18 {
		t.Errorf("first access done=%g", got)
	}
	// Immediate second access queues behind 6 ns of occupancy.
	got := d.Access(1e-6)
	want := 1e-6 + 6e-9 + 75e-9
	if math.Abs(got-want) > 1e-18 {
		t.Errorf("queued access done=%g, want %g", got, want)
	}
	if d.Accesses != 2 {
		t.Errorf("Accesses=%d", d.Accesses)
	}
	if math.Abs(d.QueueSeconds-6e-9) > 1e-18 {
		t.Errorf("QueueSeconds=%g", d.QueueSeconds)
	}
}

func TestUtilizationClamps(t *testing.T) {
	d, _ := New(75e-9, 6e-9)
	for i := 0; i < 10; i++ {
		d.Access(0)
	}
	if got := d.Utilization(60e-9); got != 1 {
		t.Errorf("overloaded utilization=%g, want clamp to 1", got)
	}
	if got := d.Utilization(0); got != 0 {
		t.Errorf("Utilization(0)=%g", got)
	}
	if got := d.Utilization(600e-9); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("utilization=%g, want 0.1", got)
	}
}

func TestBandwidthPressureGrowsWithLoad(t *testing.T) {
	// Hammering the channel from "many cores" must produce growing queue
	// delay — the contention that erodes parallel efficiency.
	d, _ := New(75e-9, 6e-9)
	var last float64
	for i := 0; i < 100; i++ {
		last = d.Access(0) // all arrive at t=0
	}
	want := 99*6e-9 + 75e-9
	if math.Abs(last-want) > 1e-15 {
		t.Errorf("100th access done=%g, want %g", last, want)
	}
}

func TestNewReturnsTypedErrors(t *testing.T) {
	_, err := New(-1, 0)
	var ce *check.Error
	if !errors.As(err, &ce) {
		t.Fatalf("want *check.Error, got %T: %v", err, err)
	}
	if ce.Field != "latency" || ce.Value != -1 {
		t.Errorf("provenance %+v", ce)
	}
	if _, err = New(75e-9, 100e-9); !errors.As(err, &ce) || ce.Field != "occupancy" {
		t.Errorf("occupancy error %v", err)
	}
	// NaN and ±Inf fail with the parameter named; a range test in the
	// v < lo || v > hi form passes NaN.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(v, 0); !errors.As(err, &ce) || ce.Field != "latency" {
			t.Errorf("latency %g: got %v, want a *check.Error on latency", v, err)
		}
		if _, err := New(75e-9, v); !errors.As(err, &ce) || ce.Field != "occupancy" {
			t.Errorf("occupancy %g: got %v, want a *check.Error on occupancy", v, err)
		}
	}
}

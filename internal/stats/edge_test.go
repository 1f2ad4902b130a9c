package stats

import (
	"math"
	"testing"
)

// The reporting and power-accounting layers feed these helpers directly
// from measurement slices that can legitimately be empty (a sweep where
// every app failed) or contain zeros (an idle-power column). This file
// pins the contract at those edges; the nominal paths live in stats_test.go.

func TestGeoMeanEdges(t *testing.T) {
	cases := []struct {
		name    string
		xs      []float64
		want    float64
		wantErr bool
	}{
		{"empty", nil, 0, true},
		{"single", []float64{4}, 4, false},
		{"pair", []float64{2, 8}, 4, false},
		{"contains zero", []float64{1, 0, 4}, 0, true},
		{"contains negative", []float64{1, -2, 4}, 0, true},
		{"all negative", []float64{-1, -2}, 0, true},
		{"tiny positive", []float64{1e-300, 1e-300}, 1e-300, false},
		{"large positive", []float64{1e150, 1e150}, 1e150, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := GeoMean(c.xs)
			if c.wantErr {
				if err == nil {
					t.Fatalf("GeoMean(%v) = %g, want error", c.xs, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("GeoMean(%v): %v", c.xs, err)
			}
			if math.Abs(got-c.want) > 1e-9*c.want {
				t.Fatalf("GeoMean(%v) = %g, want %g", c.xs, got, c.want)
			}
		})
	}
}

func TestEmptySliceSummaries(t *testing.T) {
	// Min/Max return the identity of their fold so callers can keep folding;
	// Mean/Sum/Std return 0. All four must be safe on nil.
	if got := Min(nil); !math.IsInf(got, 1) {
		t.Errorf("Min(nil) = %g, want +Inf", got)
	}
	if got := Max(nil); !math.IsInf(got, -1) {
		t.Errorf("Max(nil) = %g, want -Inf", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g, want 0", got)
	}
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %g, want 0", got)
	}
	if got := Std(nil); got != 0 {
		t.Errorf("Std(nil) = %g, want 0", got)
	}
	if got := Std([]float64{5}); got != 0 {
		t.Errorf("Std(single) = %g, want 0 (sample std undefined)", got)
	}
}

func TestSeriesEdges(t *testing.T) {
	if _, err := NewSeries([]float64{1, 1}, []float64{0, 0}); err == nil {
		t.Error("NewSeries accepted non-increasing x")
	}
	if _, err := NewSeries([]float64{1, 2}, []float64{0}); err == nil {
		t.Error("NewSeries accepted mismatched lengths")
	}
	if _, err := NewSeries(nil, nil); err == nil {
		t.Error("NewSeries accepted an empty series")
	}
	s, err := NewSeries([]float64{1, 2, 4}, []float64{10, 20, 40})
	if err != nil {
		t.Fatal(err)
	}
	// Clamping outside the sampled range, exact hits on sample points.
	for _, c := range []struct{ x, want float64 }{
		{0, 10}, {1, 10}, {2, 20}, {3, 30}, {4, 40}, {100, 40},
	} {
		if got := s.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if _, err := s.InvertMonotone(50); err == nil {
		t.Error("InvertMonotone accepted a target above the y range")
	}
	x, err := s.InvertMonotone(30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-3) > 1e-6 {
		t.Errorf("InvertMonotone(30) = %g, want 3", x)
	}
}

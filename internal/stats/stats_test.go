package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanSumMinMax(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean=%g", got)
	}
	if got := Sum(xs); got != 10 {
		t.Errorf("Sum=%g", got)
	}
	if got := Min(xs); got != 1 {
		t.Errorf("Min=%g", got)
	}
	if got := Max(xs); got != 4 {
		t.Errorf("Max=%g", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil)=%g", got)
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean=%g, want 4", got)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("accepted empty")
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("accepted zero")
	}
	if _, err := GeoMean([]float64{1, -2}); err == nil {
		t.Error("accepted negative")
	}
}

func TestNewSeriesValidation(t *testing.T) {
	if _, err := NewSeries([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("accepted length mismatch")
	}
	if _, err := NewSeries(nil, nil); err == nil {
		t.Error("accepted empty")
	}
	if _, err := NewSeries([]float64{1, 1}, []float64{0, 0}); err == nil {
		t.Error("accepted non-increasing x")
	}
	if _, err := NewSeries([]float64{2, 1}, []float64{0, 0}); err == nil {
		t.Error("accepted decreasing x")
	}
}

func TestSeriesAt(t *testing.T) {
	s, err := NewSeries([]float64{0, 10, 20}, []float64{0, 100, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{-5, 0}, {0, 0}, {5, 50}, {10, 100}, {15, 50}, {20, 0}, {99, 0},
	}
	for _, c := range cases {
		if got := s.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%g)=%g, want %g", c.x, got, c.want)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len=%d", s.Len())
	}
}

func TestSeriesImmutableCopy(t *testing.T) {
	x := []float64{0, 1}
	y := []float64{5, 6}
	s, err := NewSeries(x, y)
	if err != nil {
		t.Fatal(err)
	}
	x[0] = 99
	y[0] = 99
	if s.X[0] != 0 || s.Y[0] != 5 {
		t.Error("series aliases caller slices")
	}
}

func TestInvertMonotone(t *testing.T) {
	inc, _ := NewSeries([]float64{0, 1, 2}, []float64{0, 10, 40})
	x, err := inc.InvertMonotone(25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inc.At(x)-25) > 1e-6 {
		t.Errorf("InvertMonotone: y(%g)=%g, want 25", x, inc.At(x))
	}
	dec, _ := NewSeries([]float64{0, 1}, []float64{10, 0})
	x, err = dec.InvertMonotone(4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.At(x)-4) > 1e-6 {
		t.Errorf("decreasing invert: y(%g)=%g, want 4", x, dec.At(x))
	}
	if _, err := inc.InvertMonotone(1000); err == nil {
		t.Error("accepted out-of-range target")
	}
	if _, err := inc.InvertMonotone(-5); err == nil {
		t.Error("accepted below-range target")
	}
}

// Property: At is within [min(Y), max(Y)] for any query.
func TestQuickAtBounded(t *testing.T) {
	s, _ := NewSeries([]float64{0, 1, 3, 7}, []float64{2, -1, 5, 0})
	lo, hi := Min(s.Y), Max(s.Y)
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		v := s.At(x)
		return v >= lo-1e-12 && v <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Mean is between Min and Max.
func TestQuickMeanBounded(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				// Map into a bounded range to avoid summation overflow,
				// which is out of scope for this property.
				clean = append(clean, math.Mod(x, 1e6))
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= Min(clean)-1e-6*math.Abs(Min(clean))-1e-9 &&
			m <= Max(clean)+1e-6*math.Abs(Max(clean))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStd(t *testing.T) {
	if got := Std([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2.138) > 0.01 {
		t.Errorf("Std=%g, want ≈2.14", got)
	}
	if got := Std([]float64{5}); got != 0 {
		t.Errorf("Std of one sample = %g", got)
	}
	if got := Std(nil); got != 0 {
		t.Errorf("Std(nil)=%g", got)
	}
	if got := Std([]float64{3, 3, 3}); got != 0 {
		t.Errorf("Std of constants = %g", got)
	}
}

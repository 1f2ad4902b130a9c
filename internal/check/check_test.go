package check

import (
	"errors"
	"math"
	"testing"
)

func TestIn(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		v, lo, hi float64
		want      bool
	}{
		{0.5, 0, 1, true},
		{0, 0, 1, true},
		{1, 0, 1, true},
		{-0.1, 0, 1, false},
		{1.1, 0, 1, false},
		{nan, 0, 1, false},
		{nan, -inf, inf, false},
		{inf, 0, math.MaxFloat64, false},
		{inf, 0, inf, true},
		{-inf, -math.MaxFloat64, 0, false},
	} {
		if got := In(tc.v, tc.lo, tc.hi); got != tc.want {
			t.Errorf("In(%g, %g, %g) = %t, want %t", tc.v, tc.lo, tc.hi, got, tc.want)
		}
	}
	for _, v := range []float64{nan, inf, -inf} {
		if Finite(v) {
			t.Errorf("Finite(%g) = true", v)
		}
	}
	if !Finite(0) || !Finite(-math.MaxFloat64) {
		t.Error("Finite rejects a finite value")
	}
}

func TestFail(t *testing.T) {
	err := Fail("TripC", math.NaN(), "trip %g", math.NaN())
	var ce *Error
	if !errors.As(err, &ce) || ce.Field != "TripC" || !math.IsNaN(ce.Value) || err.Error() != "trip NaN" {
		t.Errorf("Fail gave %#v", err)
	}
}

// Package stats provides the small numeric helpers shared by the power
// accounting, experiment harnesses and reporting code: summary statistics
// and (x, y) series with interpolation.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Std returns the sample standard deviation of xs (0 for fewer than two
// samples).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// GeoMean returns the geometric mean of xs; all entries must be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: geomean of empty slice")
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean requires positive values, got %g", x)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// Series is a sampled function y(x) with strictly increasing x.
type Series struct {
	X, Y []float64
}

// NewSeries validates and wraps the samples.
func NewSeries(x, y []float64) (*Series, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("stats: series length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, errors.New("stats: empty series")
	}
	for i := 1; i < len(x); i++ {
		if x[i] <= x[i-1] {
			return nil, fmt.Errorf("stats: series x not strictly increasing at %d (%g <= %g)", i, x[i], x[i-1])
		}
	}
	return &Series{X: append([]float64(nil), x...), Y: append([]float64(nil), y...)}, nil
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.X) }

// At linearly interpolates y(x), clamping outside the sampled range.
func (s *Series) At(x float64) float64 {
	if x <= s.X[0] {
		return s.Y[0]
	}
	n := len(s.X)
	if x >= s.X[n-1] {
		return s.Y[n-1]
	}
	i := sort.SearchFloat64s(s.X, x)
	if s.X[i] == x {
		return s.Y[i]
	}
	w := (x - s.X[i-1]) / (s.X[i] - s.X[i-1])
	return s.Y[i-1] + w*(s.Y[i]-s.Y[i-1])
}

// InvertMonotone finds x in [X[0], X[n-1]] with y(x) == target, assuming y
// is monotone (either direction) under linear interpolation. Returns an
// error if target is outside the series' y range.
func (s *Series) InvertMonotone(target float64) (float64, error) {
	lo, hi := s.X[0], s.X[len(s.X)-1]
	ylo, yhi := s.At(lo), s.At(hi)
	increasing := yhi >= ylo
	yMin, yMax := math.Min(ylo, yhi), math.Max(ylo, yhi)
	if target < yMin-1e-12 || target > yMax+1e-12 {
		return 0, fmt.Errorf("stats: target %g outside series range [%g, %g]", target, yMin, yMax)
	}
	for i := 0; i < 100; i++ {
		mid := 0.5 * (lo + hi)
		v := s.At(mid)
		if (v < target) == increasing {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

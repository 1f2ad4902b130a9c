package surrogate

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzRecordLen is the wire size of one encoded sample: a core-count
// byte followed by five raw float64s (freq, volt, seconds, dynamic
// watts, static watts). Raw bit patterns mean the fuzzer reaches every
// float — NaN, ±Inf, subnormals, negative zero — without any decoder
// shepherding it toward valid values.
const fuzzRecordLen = 1 + 5*8

// decodeFuzzSamples turns arbitrary bytes into a sample set, at most 40
// records so one fit stays cheap.
func decodeFuzzSamples(data []byte) []Sample {
	var out []Sample
	for len(data) >= fuzzRecordLen && len(out) < 40 {
		rec := data[:fuzzRecordLen]
		data = data[fuzzRecordLen:]
		g := func(i int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(rec[1+8*i:]))
		}
		s := Sample{
			N: int(rec[0] % 40), Freq: g(0), Volt: g(1),
			Seconds: g(2), DynW: g(3), StaticW: g(4),
		}
		s.PowerW = s.DynW + s.StaticW
		out = append(out, s)
	}
	return out
}

// encodeFuzzSamples is decodeFuzzSamples' inverse, for seeding the
// corpus with realistic sample sets.
func encodeFuzzSamples(ss []Sample) []byte {
	var out []byte
	for _, s := range ss {
		rec := make([]byte, fuzzRecordLen)
		rec[0] = byte(s.N)
		for i, v := range []float64{s.Freq, s.Volt, s.Seconds, s.DynW, s.StaticW} {
			binary.LittleEndian.PutUint64(rec[1+8*i:], math.Float64bits(v))
		}
		out = append(out, rec...)
	}
	return out
}

// FuzzSurrogateFit feeds arbitrary sample sets through the store and
// the full fit pipeline and checks the activation contract holds for
// every input, not just plausible ones:
//
//   - no panic, and every refusal carries a reason;
//   - an activated fit advertises a bound in (0, maxBound] at or above
//     the floor, fitted efficiency parameters inside the searched
//     quadrant with ε(1) = 1 and ε monotone non-increasing, and a
//     well-formed region (sorted trained core counts, a positive
//     finite frequency span);
//   - every in-region query at a trained point returns finite positive
//     predictions.
func FuzzSurrogateFit(f *testing.F) {
	grid := func(ns []int, fracs []float64, warp float64) []Sample {
		var ss []Sample
		for _, n := range ns {
			for _, fr := range fracs {
				s := synthPoint(n, fr)
				s.Seconds *= warp
				ss = append(ss, s)
			}
		}
		return ss
	}
	f.Add(encodeFuzzSamples(grid([]int{1, 2, 4, 8}, []float64{1.0, 0.75, 0.55}, 1)))
	f.Add(encodeFuzzSamples(grid([]int{1, 2, 4}, []float64{1.0, 0.6}, 1.3)))
	f.Add(encodeFuzzSamples([]Sample{
		{N: 1, Freq: math.NaN(), Volt: 1, Seconds: 1, PowerW: 2, DynW: 1, StaticW: 1},
		{N: 39, Freq: math.Inf(1), Volt: -0, Seconds: math.SmallestNonzeroFloat64, PowerW: 1, DynW: math.MaxFloat64, StaticW: 1e-300},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0, 1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		ss := decodeFuzzSamples(data)
		st := NewStore(Options{})
		for _, s := range ss {
			st.Observe(synthKey, synthNomFreq, synthNomVolt, s)
		}
		fit := st.FitFor(synthKey)
		if fit == nil {
			if st.Reason(synthKey) == "" {
				t.Fatal("refusal with no reason")
			}
			return
		}
		if !(fit.Bound > 0) || fit.Bound > maxBound || fit.Bound < floorErr {
			t.Fatalf("activated with bound %v outside (0, %v], floor %v", fit.Bound, maxBound, floorErr)
		}
		if fit.Serial < 0 || fit.Serial > 0.5 || fit.Comm < 0 || fit.Comm > 0.5 {
			t.Fatalf("fitted (s, c) = (%v, %v) left the search quadrant", fit.Serial, fit.Comm)
		}
		if got := fit.Eps(1); got != 1 {
			t.Fatalf("Eps(1) = %v", got)
		}
		prev := 1.0
		for n := 2; n <= 64; n++ {
			e := fit.Eps(n)
			if e > prev+1e-12 || e <= 0 {
				t.Fatalf("Eps not monotone in (0, 1]: Eps(%d) = %v after %v", n, e, prev)
			}
			prev = e
		}
		if len(fit.Ns) < minDistinctN {
			t.Fatalf("region has %d core counts < %d", len(fit.Ns), minDistinctN)
		}
		for i, n := range fit.Ns {
			if i > 0 && n <= fit.Ns[i-1] {
				t.Fatalf("Ns not strictly sorted: %v", fit.Ns)
			}
		}
		if !(fit.MinFreqHz > 0) || !(fit.MaxFreqHz >= fit.MinFreqHz) || math.IsInf(fit.MaxFreqHz, 0) {
			t.Fatalf("degenerate frequency span [%v, %v]", fit.MinFreqHz, fit.MaxFreqHz)
		}
		mid := (fit.MinFreqHz + fit.MaxFreqHz) / 2
		for _, n := range fit.Ns {
			p, ok := fit.Predict(n, mid, fit.NomVolt)
			if !ok {
				t.Fatalf("in-region query (n=%d, mid-span) refused", n)
			}
			for _, v := range []float64{p.Seconds, p.PowerW, p.EnergyJ, p.EDP} {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Fatalf("non-finite or non-positive prediction %+v at n=%d", p, n)
				}
			}
		}
	})
}

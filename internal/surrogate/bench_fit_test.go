package surrogate

import "testing"

func BenchmarkFitSynthetic(b *testing.B) {
	ss := synthGrid([]int{1, 2, 4, 8}, []float64{1.0, 0.75, 0.55})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit(synthKey, synthNomFreq, synthNomVolt, ss)
	}
}

package cmp

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"cmppower/internal/splash"
)

// BenchmarkSampledOverhead prices interval sampling on the fused loop:
// each iteration runs one application unsampled and then sampled into
// 64 intervals (the DTM replay's sampling), and the benchmark reports
// the median sampled/unsampled time ratio over its iterations and the
// median sampled run time, which compares across builds. Scale
// 1.0 and N ∈ {1, 16}: one core has nothing to order, sixteen order the
// most.
//
//	go test -run '^$' -bench SampledOverhead -benchtime 10x ./internal/cmp
func BenchmarkSampledOverhead(b *testing.B) {
	for _, name := range []string{"FFT", "Ocean", "FMM", "Radix"} {
		for _, n := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/n%d", name, n), func(b *testing.B) {
				app, err := splash.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				prog := app.Program(1.0)
				cfg := DefaultConfig(n, nominalPoint(b))
				cfg.Core = app.CoreConfig()
				cfg.Ctx = context.Background()
				run := func(cfg Config) (*Result, time.Duration) {
					start := time.Now()
					res, err := Run(prog, cfg)
					if err != nil {
						b.Fatal(err)
					}
					return res, time.Since(start)
				}
				probe, _ := run(cfg)
				sampled := cfg
				sampled.SampleCycles = probe.Cycles / 64
				ratios := make([]float64, 0, b.N)
				times := make([]float64, 0, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, plain := run(cfg)
					_, obs := run(sampled)
					ratios = append(ratios, float64(obs)/float64(plain))
					times = append(times, obs.Seconds()*1e3)
				}
				sort.Float64s(ratios)
				sort.Float64s(times)
				b.ReportMetric(ratios[len(ratios)/2], "sampled/unsampled")
				b.ReportMetric(times[len(times)/2], "sampled-ms")
			})
		}
	}
}

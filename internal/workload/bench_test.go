package workload_test

import (
	"testing"

	"cmppower/internal/splash"
	"cmppower/internal/workload"
)

// streamSink keeps BenchmarkStreamServeMix's drains observable.
var streamSink workload.Event

// BenchmarkStreamServeMix times event generation alone on the serve-exact
// mix: 8 apps × N ∈ {1,2,4,8,16} at scale 0.1. One op builds and drains
// every thread's stream of one (app, N) with a fresh seed, through
// NextBatch into a 256-event buffer as the engine does; ns/event is the
// total time over the events delivered.
func BenchmarkStreamServeMix(b *testing.B) {
	type job struct {
		prog *workload.Program
		n    int
	}
	var jobs []job
	for _, name := range []string{"FFT", "LU", "Ocean", "Radix", "Barnes", "FMM", "Water-Sp", "Cholesky"} {
		app, err := splash.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog := app.Program(0.1)
		for _, n := range []int{1, 2, 4, 8, 16} {
			jobs = append(jobs, job{prog, n})
		}
	}
	buf := make([]workload.Event, 256)
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		for tid := 0; tid < j.n; tid++ {
			s, err := workload.NewStream(j.prog, tid, j.n, uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			for {
				k := s.NextBatch(buf)
				events += int64(k)
				if buf[k-1].Kind == workload.EvDone {
					streamSink = buf[k-1]
					break
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

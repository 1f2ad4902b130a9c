package cmp

import (
	"reflect"
	"sync"
	"testing"

	"cmppower/internal/cache"
	"cmppower/internal/splash"
	"cmppower/internal/workload"
)

// reuseShape is one run whose buffers (L1 bank, L2 lines, runner event
// buffers) differ from its neighbors' in length or in how they are used.
type reuseShape struct {
	name string
	prog *workload.Program
	cfg  Config
}

// reuseShapes returns shape B — a plain Table 1 run — and the shapes A
// that run between two B runs: a different core count, a CacheOverride
// geometry, the prefetcher, and a sampled run, whose fused loop also
// grows per-core tails of deferred compute events.
func reuseShapes(t *testing.T) (b reuseShape, as []reuseShape) {
	t.Helper()
	p := nominalPoint(t)
	shape := func(name, app string, n int, mut func(*Config)) reuseShape {
		a, err := splash.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(n, p)
		cfg.Core = a.CoreConfig()
		cfg.Seed = 5
		if mut != nil {
			mut(&cfg)
		}
		return reuseShape{name: name, prog: a.Program(0.05), cfg: cfg}
	}
	b = shape("B", "FFT", 4, nil)
	as = []reuseShape{
		shape("A/n16", "Ocean", 16, nil),
		shape("A/override", "FFT", 4, func(c *Config) {
			cc := cache.DefaultConfig(4, p.Freq)
			cc.L1 = cache.Geometry{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4}
			cc.L2 = cache.Geometry{SizeBytes: 1 << 20, LineBytes: 128, Ways: 8}
			c.CacheOverride = &cc
		}),
		shape("A/prefetch", "Radix", 4, func(c *Config) { c.PrefetchNextLine = true }),
		shape("A/sampled", "LU", 2, func(c *Config) { c.SampleCycles = 50_000 }),
	}
	return b, as
}

func (s reuseShape) run(t testing.TB) *Result {
	t.Helper()
	res, err := Run(s.prog, s.cfg)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return res
}

// TestReusedBuffersLeaveNoTrace runs shape B, then every shape A — each
// leaves its buffers behind for the next run of its shape — and then B
// again. The second B run starts on recycled buffers that other shapes
// dirtied, and must equal the first in every field.
func TestReusedBuffersLeaveNoTrace(t *testing.T) {
	b, as := reuseShapes(t)
	first := b.run(t)
	// Three of the A shapes use B's Table 1 L2 length, and the prefetch
	// shape B's L1 bank length, so B's second run inherits dirty buffers.
	for _, a := range as {
		a.run(t)
	}
	if second := b.run(t); !reflect.DeepEqual(first, second) {
		t.Fatalf("B after A differs from B before: %s", diffResults(first, second))
	}
}

// TestConcurrentReuseMatchesSerial runs mixed shapes from several
// goroutines at once, so the free lists hand buffers between goroutines
// mid-stream, and requires every result to equal the shape's serial
// run. Run it under -race.
func TestConcurrentReuseMatchesSerial(t *testing.T) {
	b, as := reuseShapes(t)
	shapes := append([]reuseShape{b}, as...)
	want := make([]*Result, len(shapes))
	for i, s := range shapes {
		want[i] = s.run(t)
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range shapes {
					// Each worker walks the shapes from its own offset,
					// so different shapes run side by side.
					i := (w + r + k) % len(shapes)
					got, err := Run(shapes[i].prog, shapes[i].cfg)
					if err != nil {
						t.Errorf("worker %d %s: %v", w, shapes[i].name, err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("worker %d %s differs from its serial run: %s",
							w, shapes[i].name, diffResults(got, want[i]))
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

package cache

import (
	"fmt"
	"math"
	"testing"

	"cmppower/internal/mem"
	"cmppower/internal/workload"
)

// access is one step of seeded hierarchy traffic: core issues it gap
// cycles after its previous access completed.
type access struct {
	core  int
	addr  uint64
	write bool
	gap   float64
}

// Address regions of sharedTraffic. Each core's private region is 256 KiB
// (four Table 1 L1s); the read-shared region is 64 KiB and the
// write-shared one 8 KiB, so both are hot in every L1 at once.
const (
	privateSpan     = 256 << 10
	readSharedBase  = 1 << 40
	readSharedSpan  = 64 << 10
	writeSharedBase = 2 << 40
	writeSharedSpan = 8 << 10
)

// sharedTraffic returns count seeded accesses from n cores: a third
// stream through the core's private region 16 bytes at a time and a
// quarter jump around it (both 30% writes), a quarter read the
// read-shared region, and the rest read and write the write-shared region
// half and half.
func sharedTraffic(seed uint64, n, count int) []access {
	rng := workload.NewRNG(seed)
	stream := make([]uint64, n)
	out := make([]access, count)
	for i := range out {
		c := rng.Intn(n)
		a := access{core: c, gap: float64(rng.Intn(8))}
		private := uint64(c+1) << 32
		switch r := rng.Float64(); {
		case r < 0.33:
			a.addr = private + stream[c]
			stream[c] = (stream[c] + 16) % privateSpan
			a.write = rng.Float64() < 0.3
		case r < 0.58:
			a.addr = private + uint64(rng.Intn(privateSpan/8))*8
			a.write = rng.Float64() < 0.3
		case r < 0.83:
			a.addr = readSharedBase + uint64(rng.Intn(readSharedSpan/8))*8
		default:
			a.addr = writeSharedBase + uint64(rng.Intn(writeSharedSpan/8))*8
			a.write = rng.Float64() < 0.5
		}
		out[i] = a
	}
	return out
}

// retryEvery is a deterministic FaultHook: it charges pen cycles to the
// accesses whose (core, line) hash falls in one bucket of k.
type retryEvery struct {
	k   uint64
	pen float64
}

func (f retryEvery) CacheRetryCycles(core int, la uint64) float64 {
	if (la*0x9E3779B97F4A7C15^uint64(core))%f.k == 0 {
		return f.pen
	}
	return 0
}

// fnv folds words into an FNV-1a value.
type fnv uint64

func (d *fnv) add(ws ...uint64) {
	for _, w := range ws {
		*d ^= fnv(w)
		*d *= 1099511628211
	}
}

// pinnedRun drives traffic through h and folds every completion cycle,
// the final counters of the hierarchy, its bus and its DRAM channel, and
// the line digest into one value.
func pinnedRun(h *Hierarchy, dram *mem.DRAM, traffic []access) uint64 {
	d := fnv(14695981039346656037)
	clock := make([]float64, h.cfg.NCores)
	for _, a := range traffic {
		done := h.Access(a.core, a.addr, a.write, clock[a.core]+a.gap)
		clock[a.core] = done
		d.add(math.Float64bits(done))
	}
	st := h.Stats()
	for c := range st.L1DAccess {
		d.add(uint64(st.L1DAccess[c]), uint64(st.L1DMiss[c]))
	}
	d.add(uint64(st.L2Access), uint64(st.L2Miss), uint64(st.Upgrades),
		uint64(st.Invals), uint64(st.C2C), uint64(st.WBToL2), uint64(st.WBToMem),
		uint64(st.Prefetch), uint64(st.ECCRetries), math.Float64bits(st.ECCRetryCycles))
	b := h.Bus()
	d.add(uint64(b.Transactions), math.Float64bits(b.WaitCycles), math.Float64bits(b.FreeAt()))
	d.add(uint64(dram.Accesses), math.Float64bits(dram.QueueSeconds))
	d.add(h.LineDigest())
	return uint64(d)
}

// smallL2 is an L2 of 1024 lines: a core's private region alone overflows
// it, so traffic evicts L2 lines, back-invalidates L1 copies and writes
// dirty lines back to memory.
var smallL2 = Geometry{SizeBytes: 128 << 10, LineBytes: 128, Ways: 4}

// pinnedTraffic is the case table of TestHierarchyTrafficPinned, keyed by
// subtest name. Each value was captured from the hierarchy before its
// miss path was rebuilt around the inclusion filter; a change to the
// modeled machine — any completion cycle, counter or line word — moves
// it.
var pinnedTraffic = map[string]uint64{
	"n=1/smallL2=false/prefetch=false/retry=false":  0xb75e09a7d10b5d72,
	"n=1/smallL2=false/prefetch=false/retry=true":   0x3fd75f7ac40cb679,
	"n=1/smallL2=false/prefetch=true/retry=false":   0xba66d3fc965ae5c7,
	"n=1/smallL2=false/prefetch=true/retry=true":    0xd7d959481b1fc4c2,
	"n=1/smallL2=true/prefetch=false/retry=false":   0xc44968d4b0a0f397,
	"n=1/smallL2=true/prefetch=false/retry=true":    0x567a369b5493136f,
	"n=1/smallL2=true/prefetch=true/retry=false":    0x45e5b97119c3a2c3,
	"n=1/smallL2=true/prefetch=true/retry=true":     0x42e88f6717e26886,
	"n=2/smallL2=false/prefetch=false/retry=false":  0xd07698f8cf4a8499,
	"n=2/smallL2=false/prefetch=false/retry=true":   0xb17eefdb1aa8582c,
	"n=2/smallL2=false/prefetch=true/retry=false":   0x41e262aad56507c9,
	"n=2/smallL2=false/prefetch=true/retry=true":    0x000da74c36930acf,
	"n=2/smallL2=true/prefetch=false/retry=false":   0x59b7f6147aa053e2,
	"n=2/smallL2=true/prefetch=false/retry=true":    0xd5301fffbe7502a1,
	"n=2/smallL2=true/prefetch=true/retry=false":    0x5e9c63a2ffe78ba2,
	"n=2/smallL2=true/prefetch=true/retry=true":     0x8b416b8518f44224,
	"n=4/smallL2=false/prefetch=false/retry=false":  0xe8db67262e877f57,
	"n=4/smallL2=false/prefetch=false/retry=true":   0x93a6ba0170880b37,
	"n=4/smallL2=false/prefetch=true/retry=false":   0x036e2df07b76a617,
	"n=4/smallL2=false/prefetch=true/retry=true":    0x11ab55db1b314db3,
	"n=4/smallL2=true/prefetch=false/retry=false":   0xdcfb41541a68a69d,
	"n=4/smallL2=true/prefetch=false/retry=true":    0x7f0f343a8cbdef27,
	"n=4/smallL2=true/prefetch=true/retry=false":    0x6b667323052c7172,
	"n=4/smallL2=true/prefetch=true/retry=true":     0x6df7ce7b5eff865c,
	"n=16/smallL2=false/prefetch=false/retry=false": 0x12738fc9e165590e,
	"n=16/smallL2=false/prefetch=false/retry=true":  0xd948058064f05072,
	"n=16/smallL2=false/prefetch=true/retry=false":  0xcb85a3bd53497a97,
	"n=16/smallL2=false/prefetch=true/retry=true":   0xe0b20c59165ff749,
	"n=16/smallL2=true/prefetch=false/retry=false":  0xe91dfd65b8fcb92f,
	"n=16/smallL2=true/prefetch=false/retry=true":   0xb886e5dbb02e5d67,
	"n=16/smallL2=true/prefetch=true/retry=false":   0xbe4568642fa8146f,
	"n=16/smallL2=true/prefetch=true/retry=true":    0xacf16f14f24cefbb,
}

// TestHierarchyTrafficPinned pins the hierarchy's timing, counters and
// final line state bit for bit over seeded private, read-shared and
// write-shared traffic, on every path: N in {1, 2, 4, 16}, the Table 1
// L2 and one small enough to force evictions, next-line prefetch off and
// on, and no fault hook or a deterministic retry hook.
func TestHierarchyTrafficPinned(t *testing.T) {
	for _, n := range []int{1, 2, 4, 16} {
		traffic := sharedTraffic(11, n, 24000)
		for _, small := range []bool{false, true} {
			for _, pf := range []bool{false, true} {
				for _, hook := range []bool{false, true} {
					name := fmt.Sprintf("n=%d/smallL2=%t/prefetch=%t/retry=%t", n, small, pf, hook)
					t.Run(name, func(t *testing.T) {
						cfg := DefaultConfig(n, 3.2e9)
						if small {
							cfg.L2 = smallL2
						}
						cfg.PrefetchNextLine = pf
						if hook {
							cfg.Fault = retryEvery{k: 17, pen: 40}
						}
						dram := mem.Default()
						h, err := New(cfg, dram)
						if err != nil {
							t.Fatal(err)
						}
						defer h.Release()
						got := pinnedRun(h, dram, traffic)
						if err := h.CheckCoherence(); err != nil {
							t.Fatal(err)
						}
						st := h.Stats()
						if small && (st.WBToMem == 0 || st.WBToL2 == 0) {
							t.Fatalf("small L2 wrote back %d lines to memory and %d to the L2; the pin needs both paths",
								st.WBToMem, st.WBToL2)
						}
						if n > 1 && (st.Invals == 0 || st.C2C == 0 || st.Upgrades == 0) {
							t.Fatalf("sharing produced %d invalidations, %d dirty transfers, %d upgrades; the pin needs all three",
								st.Invals, st.C2C, st.Upgrades)
						}
						if pf != (st.Prefetch > 0) || hook != (st.ECCRetries > 0) {
							t.Fatalf("prefetches %d with prefetch=%t, retries %d with retry=%t",
								st.Prefetch, pf, st.ECCRetries, hook)
						}
						if want, ok := pinnedTraffic[name]; !ok || got != want {
							t.Errorf("digest %#016x, pinned %#016x", got, want)
						}
					})
				}
			}
		}
	}
}

// BenchmarkHierarchyAccess times Hierarchy.Access alone, on the seeded
// traffic of TestHierarchyTrafficPinned through the Table 1 hierarchy
// with prefetch and fault injection off. One op is one pass of the
// traffic through a fresh hierarchy, built and released off the clock:
// ns/access is the pass time over its length, and misses/op the pass's
// L1 misses, which only a change to the modeled machine moves.
func BenchmarkHierarchyAccess(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		traffic := sharedTraffic(11, n, 24000)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := DefaultConfig(n, 3.2e9)
			clock := make([]float64, n)
			var misses int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h, err := New(cfg, mem.Default())
				if err != nil {
					b.Fatal(err)
				}
				clear(clock)
				b.StartTimer()
				for _, a := range traffic {
					clock[a.core] = h.Access(a.core, a.addr, a.write, clock[a.core]+a.gap)
				}
				b.StopTimer()
				for _, m := range h.Stats().L1DMiss {
					misses += m
				}
				h.Release()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(traffic)), "ns/access")
			b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
		})
	}
}

package cache

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"cmppower/internal/check"
	"cmppower/internal/mem"
)

func newH(t *testing.T, n int) *Hierarchy {
	t.Helper()
	h, err := New(DefaultConfig(n, 3.2e9), mem.Default())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(16, 3.2e9)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NCores = 0 },
		func(c *Config) { c.L1.SizeBytes = 0 },
		func(c *Config) { c.L2.SizeBytes = 0 },
		func(c *Config) { c.L2.LineBytes = 32 }, // smaller than L1 line
		func(c *Config) { c.L1HitCycles = 0 },
		func(c *Config) { c.L2RTCycles = -1 },
		func(c *Config) { c.BusCyclesPerTx = 0 },
		func(c *Config) { c.FreqHz = 0 },
	}
	for i, mut := range mutations {
		c := DefaultConfig(16, 3.2e9)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Every float field rejects NaN and ±Inf with a typed error naming
	// it; a range test in the v <= 0 form passes NaN.
	floats := map[string]func(*Config, float64){
		"L1HitCycles":    func(c *Config, v float64) { c.L1HitCycles = v },
		"L2RTCycles":     func(c *Config, v float64) { c.L2RTCycles = v },
		"BusCyclesPerTx": func(c *Config, v float64) { c.BusCyclesPerTx = v },
		"FreqHz":         func(c *Config, v float64) { c.FreqHz = v },
	}
	for field, set := range floats {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := DefaultConfig(16, 3.2e9)
			set(&c, v)
			var ce *check.Error
			if err := c.Validate(); !errors.As(err, &ce) || ce.Field != field {
				t.Errorf("%s = %g: got %v, want a *check.Error on %s", field, v, err, field)
			}
		}
	}
	if _, err := New(good, nil); err == nil {
		t.Error("accepted nil DRAM")
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := newH(t, 2)
	// Cold miss goes to memory: latency far beyond L1 hit.
	done := h.Access(0, 0x1000, false, 0)
	memCycles := 75e-9 * 3.2e9 // 240
	if done < memCycles {
		t.Errorf("cold miss done at %g cycles, want >= %g", done, memCycles)
	}
	// Re-access: L1 hit at exactly the hit latency.
	start := done
	if got := h.Access(0, 0x1008, false, start); got != start+2 {
		t.Errorf("hit done=%g, want %g", got, start+2)
	}
	st := h.Stats()
	if st.L1DAccess[0] != 2 || st.L1DMiss[0] != 1 {
		t.Errorf("access/miss = %d/%d", st.L1DAccess[0], st.L1DMiss[0])
	}
	if st.L2Miss != 1 {
		t.Errorf("L2Miss=%d, want 1", st.L2Miss)
	}
}

func TestL2HitFasterThanMemory(t *testing.T) {
	h := newH(t, 2)
	h.Access(0, 0x4000, false, 0) // core 0 warms L2
	// Evict from core 0's view is irrelevant; core 1 misses L1, hits L2.
	t0 := 10000.0
	done := h.Access(1, 0x4000, false, t0)
	lat := done - t0
	if lat > 30 {
		t.Errorf("L2-hit latency %g cycles, want ~bus+12", lat)
	}
	if lat < h.Config().L2RTCycles {
		t.Errorf("latency %g below L2 RT", lat)
	}
}

func TestMESIReadSharing(t *testing.T) {
	h := newH(t, 4)
	addr := uint64(0x8000)
	h.Access(0, addr, false, 0)
	if st := h.PeekL1(0, addr); st != Exclusive {
		t.Fatalf("sole reader state=%v, want E", st)
	}
	h.Access(1, addr, false, 1000)
	if st := h.PeekL1(0, addr); st != Shared {
		t.Errorf("first reader downgraded to %v, want S", st)
	}
	if st := h.PeekL1(1, addr); st != Shared {
		t.Errorf("second reader state=%v, want S", st)
	}
}

func TestMESIWriteInvalidates(t *testing.T) {
	h := newH(t, 4)
	addr := uint64(0xA000)
	h.Access(0, addr, false, 0)
	h.Access(1, addr, false, 1000)
	// Core 2 writes: both readers invalidated.
	h.Access(2, addr, true, 2000)
	if st := h.PeekL1(2, addr); st != Modified {
		t.Errorf("writer state=%v, want M", st)
	}
	if h.PeekL1(0, addr) != Invalid || h.PeekL1(1, addr) != Invalid {
		t.Error("readers not invalidated by remote write")
	}
	if h.Stats().Invals < 2 {
		t.Errorf("Invals=%d, want >=2", h.Stats().Invals)
	}
}

func TestMESIUpgradeOnSharedWrite(t *testing.T) {
	h := newH(t, 2)
	addr := uint64(0xB000)
	h.Access(0, addr, false, 0)
	h.Access(1, addr, false, 500) // both Shared now
	h.Access(0, addr, true, 1000) // upgrade, no refetch
	if st := h.PeekL1(0, addr); st != Modified {
		t.Errorf("upgrader state=%v", st)
	}
	if h.PeekL1(1, addr) != Invalid {
		t.Error("sharer survived upgrade")
	}
	if h.Stats().Upgrades != 1 {
		t.Errorf("Upgrades=%d, want 1", h.Stats().Upgrades)
	}
}

func TestMESIExclusiveSilentUpgrade(t *testing.T) {
	h := newH(t, 2)
	addr := uint64(0xC000)
	h.Access(0, addr, false, 0) // E
	before := h.Bus().Transactions
	h.Access(0, addr, true, 100) // E->M needs no bus
	if h.Bus().Transactions != before {
		t.Error("E->M transition used the bus")
	}
	if h.PeekL1(0, addr) != Modified {
		t.Error("silent upgrade failed")
	}
}

func TestDirtyCacheToCacheTransfer(t *testing.T) {
	h := newH(t, 2)
	addr := uint64(0xD000)
	h.Access(0, addr, true, 0) // core 0 dirty
	t0 := 5000.0
	done := h.Access(1, addr, false, t0)
	if lat := done - t0; lat > 40 {
		t.Errorf("dirty c2c latency %g cycles; should be on-chip, not memory", lat)
	}
	st := h.Stats()
	if st.C2C != 1 {
		t.Errorf("C2C=%d, want 1", st.C2C)
	}
	if h.PeekL1(0, addr) != Shared || h.PeekL1(1, addr) != Shared {
		t.Error("states after c2c read should be S/S")
	}
}

func TestWriteMissInvalidatesDirtyOwner(t *testing.T) {
	h := newH(t, 2)
	addr := uint64(0xE000)
	h.Access(0, addr, true, 0)
	h.Access(1, addr, true, 1000)
	if h.PeekL1(0, addr) != Invalid {
		t.Error("dirty owner survived remote write")
	}
	if h.PeekL1(1, addr) != Modified {
		t.Error("new writer not M")
	}
}

func TestMemoryLatencyScalesWithFrequency(t *testing.T) {
	// The same cold miss costs ~240 cycles at 3.2 GHz but ~15 at 200 MHz:
	// the paper's DVFS/memory interaction.
	hFast := newH(t, 1)
	fast := hFast.Access(0, 0x1000, false, 0)

	hSlowCfg := DefaultConfig(1, 200e6)
	hSlow, err := New(hSlowCfg, mem.Default())
	if err != nil {
		t.Fatal(err)
	}
	slow := hSlow.Access(0, 0x1000, false, 0)
	if fast < 200 {
		t.Errorf("fast-chip miss = %g cycles, want ≈246", fast)
	}
	if slow > 40 {
		t.Errorf("slow-chip miss = %g cycles, want ≈21", slow)
	}
}

func TestBusContentionSerializesMisses(t *testing.T) {
	h := newH(t, 8)
	// Eight cores miss simultaneously to different lines: bus arbitration
	// must stagger the completions.
	var dones []float64
	for c := 0; c < 8; c++ {
		dones = append(dones, h.Access(c, uint64(0x10000+c*4096), false, 0))
	}
	distinct := map[float64]bool{}
	for _, d := range dones {
		distinct[d] = true
	}
	if len(distinct) < 8 {
		t.Errorf("only %d distinct completion times; bus not serializing", len(distinct))
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	// Fill the L2 far beyond capacity with core 0 and verify core 1's old
	// line eventually disappears from its L1 via back-invalidation.
	cfg := DefaultConfig(2, 3.2e9)
	cfg.L2 = Geometry{SizeBytes: 16 << 10, LineBytes: 128, Ways: 2} // tiny L2
	h, err := New(cfg, mem.Default())
	if err != nil {
		t.Fatal(err)
	}
	victim := uint64(0x100)
	h.Access(1, victim, false, 0)
	if h.PeekL1(1, victim) == Invalid {
		t.Fatal("warm line missing")
	}
	now := 1000.0
	for i := 0; i < 4096; i++ {
		now = h.Access(0, uint64(0x100000+i*128), false, now)
	}
	if h.PeekL1(1, victim) != Invalid {
		t.Error("inclusion violated: L1 line survived L2 eviction")
	}
}

func TestSuperlinearCachingEffect(t *testing.T) {
	// A working set that thrashes one L1 but fits in four: per-access miss
	// rate must drop sharply when the set is partitioned 4 ways. This is
	// the aggregate-cache effect behind superlinear efficiency (paper §2.1).
	const wsBytes = 160 << 10 // 2.5× one 64 KB L1
	missRate := func(nCores int, span uint64) float64 {
		h := newH(t, nCores)
		now := 0.0
		per := span / uint64(nCores)
		const accesses = 20000
		for i := 0; i < accesses*nCores; i++ {
			c := i % nCores
			base := uint64(c) * per
			addr := base + uint64((i*64)%int(per))
			now = h.Access(c, addr, false, now)
		}
		st := h.Stats()
		var acc, miss int64
		for c := 0; c < nCores; c++ {
			acc += st.L1DAccess[c]
			miss += st.L1DMiss[c]
		}
		return float64(miss) / float64(acc)
	}
	m1 := missRate(1, wsBytes)
	m4 := missRate(4, wsBytes)
	if m4 >= m1/2 {
		t.Errorf("partitioned miss rate %g not far below single-core %g", m4, m1)
	}
}

// TestHierarchyAfterReleaseStartsEmpty dirties a hierarchy, releases it,
// and builds another of the same shape, which usually inherits the
// released line buffers: it must start exactly as a fresh one does — no
// valid line, zero counters, the fresh line digest.
func TestHierarchyAfterReleaseStartsEmpty(t *testing.T) {
	const n = 4
	want := newH(t, n)
	wantDigest, wantStats := want.LineDigest(), want.Stats()
	reused := 0
	for round := 0; round < 20; round++ {
		h := newH(t, n)
		for i := 0; i < 5000; i++ {
			h.Access(i%n, uint64(i*i)*64, i%3 == 0, float64(i))
		}
		if h.l2.CountValid() == 0 {
			t.Fatal("traffic left no line to recycle")
		}
		l2 := &h.l2.lines[0]
		h.Release()
		h.Release() // a second release must not pool the buffers twice
		func() {
			defer func() { _ = recover() }()
			h.Access(0, 0, false, 0)
			t.Fatal("access to a released hierarchy did not panic")
		}()

		h2 := newH(t, n)
		if &h2.l2.lines[0] == l2 {
			reused++
		}
		for i, k := range h2.l1 {
			if k != 0 {
				t.Fatalf("round %d: L1 bank word %d starts valid (%#x)", round, i, k)
			}
		}
		if v := h2.l2.CountValid(); v != 0 {
			t.Fatalf("round %d: L2 starts with %d valid lines", round, v)
		}
		if d := h2.LineDigest(); d != wantDigest {
			t.Fatalf("round %d: line digest %x, fresh hierarchy %x", round, d, wantDigest)
		}
		if st := h2.Stats(); !reflect.DeepEqual(st, wantStats) {
			t.Fatalf("round %d: stats %+v, fresh hierarchy %+v", round, st, wantStats)
		}
		h2.Release()
	}
	if reused == 0 {
		t.Fatal("no released line buffer was ever reused")
	}
}

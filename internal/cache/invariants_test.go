package cache

import (
	"testing"
	"testing/quick"

	"cmppower/internal/mem"
	"cmppower/internal/workload"
)

func TestCheckCoherenceCleanHierarchy(t *testing.T) {
	h := newH(t, 4)
	if err := h.CheckCoherence(); err != nil {
		t.Fatalf("empty hierarchy: %v", err)
	}
	// A little deterministic traffic.
	now := 0.0
	for i := 0; i < 200; i++ {
		c := i % 4
		addr := uint64((i * 192) % 4096)
		now = h.Access(c, addr, i%3 == 0, now)
	}
	if err := h.CheckCoherence(); err != nil {
		t.Fatalf("after traffic: %v", err)
	}
}

// TestQuickCoherenceUnderRandomTraffic drives random shared-memory traffic
// from many cores — including a tiny L2 to force back-invalidations — and
// asserts the MESI + inclusion invariants hold at the end.
func TestQuickCoherenceUnderRandomTraffic(t *testing.T) {
	f := func(seed uint64, coresRaw uint8) bool {
		nCores := 2 + int(coresRaw)%6
		cfg := DefaultConfig(nCores, 3.2e9)
		// Tiny caches so evictions and back-invalidations are frequent.
		cfg.L1 = Geometry{SizeBytes: 2 << 10, LineBytes: 64, Ways: 2}
		cfg.L2 = Geometry{SizeBytes: 8 << 10, LineBytes: 128, Ways: 2}
		h, err := New(cfg, mem.Default())
		if err != nil {
			return false
		}
		rng := workload.NewRNG(seed)
		now := 0.0
		for i := 0; i < 3000; i++ {
			core := rng.Intn(nCores)
			// A small address pool maximizes sharing conflicts.
			addr := uint64(rng.Intn(64)) * 64
			write := rng.Float64() < 0.4
			now = h.Access(core, addr, write, now)
			if i%500 == 0 {
				if err := h.CheckCoherence(); err != nil {
					t.Logf("violation at step %d: %v", i, err)
					return false
				}
			}
		}
		return h.CheckCoherence() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCoherenceStatsConsistency cross-checks counters after heavy sharing:
// misses never exceed accesses, and invalidations require writes.
func TestCoherenceStatsConsistency(t *testing.T) {
	h := newH(t, 8)
	now := 0.0
	rng := workload.NewRNG(7)
	writes := 0
	for i := 0; i < 5000; i++ {
		core := rng.Intn(8)
		addr := uint64(rng.Intn(128)) * 64
		w := rng.Float64() < 0.3
		if w {
			writes++
		}
		now = h.Access(core, addr, w, now)
	}
	st := h.Stats()
	for c := 0; c < 8; c++ {
		if st.L1DMiss[c] > st.L1DAccess[c] {
			t.Errorf("core %d: misses %d exceed accesses %d", c, st.L1DMiss[c], st.L1DAccess[c])
		}
	}
	if writes == 0 {
		t.Fatal("no writes generated")
	}
	if st.Invals == 0 {
		t.Error("heavy sharing with writes produced no invalidations")
	}
	if st.L2Access == 0 || st.L2Miss > st.L2Access {
		t.Errorf("L2 counters inconsistent: %d/%d", st.L2Miss, st.L2Access)
	}
}

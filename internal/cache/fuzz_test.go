package cache

import (
	"testing"

	"cmppower/internal/mem"
)

// FuzzHierarchyCoherence drives fuzzed traffic through a small hierarchy
// and checks the MESI and inclusion invariants after every access. The
// miss path skips its snoop whenever the L2 lacks the line, which is
// sound only while inclusion holds, so this is the invariant that
// optimisation rests on.
//
// The first byte picks the shape: 2–4 cores, next-line prefetch off or
// on, an L1 of 16 sets or one, and a tiny L2 of 32 sets or one (the
// one-set shapes make a prefetch land in the set or L2 line the demand
// access just used). Every further pair of bytes is one access: the
// first byte names the core and, in its top bit, a write; the second
// picks one of 256 half-line addresses in an 8 KiB span.
func FuzzHierarchyCoherence(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x01, 0x81, 0x01, 0x02, 0x01})
	f.Add([]byte{0x05, 0x80, 0x10, 0x01, 0x10, 0x82, 0x12, 0x00, 0x10, 0x81, 0x11})
	f.Add([]byte{0x1e, 0x00, 0x00, 0x01, 0x02, 0x82, 0x04, 0x03, 0x06, 0x80, 0x08, 0x01, 0x00})
	f.Add([]byte{0x0c, 0x00, 0x40, 0x81, 0x42, 0x02, 0x44, 0x80, 0x46, 0x01, 0x40, 0x82, 0x42})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shape := data[0]
		n := 2 + int(shape%3)
		cfg := DefaultConfig(n, 3.2e9)
		cfg.PrefetchNextLine = shape&0x04 != 0
		cfg.L1 = Geometry{SizeBytes: 2 << 10, LineBytes: 64, Ways: 2}
		if shape&0x08 != 0 {
			cfg.L1 = Geometry{SizeBytes: 128, LineBytes: 64, Ways: 2}
		}
		cfg.L2 = Geometry{SizeBytes: 8 << 10, LineBytes: 128, Ways: 2}
		if shape&0x10 != 0 {
			cfg.L2 = Geometry{SizeBytes: 512, LineBytes: 128, Ways: 4}
		}
		h, err := New(cfg, mem.Default())
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		issued := make([]int64, n)
		now := 0.0
		for i := 1; i+1 < len(data) && i < 8192; i += 2 {
			core := int(data[i]&0x7F) % n
			write := data[i]&0x80 != 0
			addr := uint64(data[i+1]) * 32
			now = h.Access(core, addr, write, now)
			issued[core]++
			if err := h.CheckCoherence(); err != nil {
				t.Fatalf("access %d (core %d, addr %#x, write %t) on %+v: %v", i/2, core, addr, write, cfg, err)
			}
			for c, got := range h.Stats().L1DAccess {
				if got != issued[c] {
					t.Fatalf("access %d: core %d counted %d accesses, issued %d", i/2, c, got, issued[c])
				}
			}
		}
	})
}

package workload

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64=%g outside [0,1)", f)
		}
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10)=%d", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvCompute, EvLoad, EvStore, EvBarrier, EvLockAcq, EvLockRel, EvDone}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(200).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestEventInstructions(t *testing.T) {
	if got := (Event{Kind: EvCompute, N: 50}).Instructions(); got != 50 {
		t.Errorf("compute instructions=%d", got)
	}
	if got := (Event{Kind: EvLoad}).Instructions(); got != 1 {
		t.Errorf("load instructions=%d", got)
	}
	if got := (Event{Kind: EvDone}).Instructions(); got != 0 {
		t.Errorf("done instructions=%d", got)
	}
	if got := (Event{Kind: EvBarrier}).Instructions(); got != 1 {
		t.Errorf("barrier instructions=%d", got)
	}
}

func TestRegionWindows(t *testing.T) {
	shared := Region{Base: 0x1000, Size: 4096, Scope: Shared}
	b, s := shared.window(3, 4)
	if b != 0x1000 || s != 4096 {
		t.Errorf("shared window=(%#x,%d)", b, s)
	}
	part := Region{Base: 0x1000, Size: 4096, Scope: Partition}
	b0, s0 := part.window(0, 4)
	b1, _ := part.window(1, 4)
	if s0 != 1024 || b1 != b0+1024 {
		t.Errorf("partition windows: (%#x,%d) then %#x", b0, s0, b1)
	}
	per := Region{Base: 0x1000, Size: 4096, Scope: PerThread}
	pb0, ps0 := per.window(0, 4)
	pb1, _ := per.window(1, 4)
	if ps0 != 4096 || pb1 != pb0+4096 {
		t.Errorf("per-thread windows: (%#x,%d) then %#x", pb0, ps0, pb1)
	}
	// Tiny partitioned regions keep a minimum window.
	tiny := Region{Base: 0, Size: 16, Scope: Partition}
	_, ts := tiny.window(0, 16)
	if ts < 8 {
		t.Errorf("tiny partition window=%d", ts)
	}
}

func validProgram() *Program {
	return &Program{
		Name: "test",
		Steps: []Step{
			Serial{Body: []Step{Compute{N: 100, FPFrac: 0.2, BranchFrac: 0.1}}},
			Barrier{ID: 0},
			Loop{Times: 2, Body: []Step{
				Kernel{
					Accesses: 64, ComputePerMem: 4, WriteFrac: 0.3,
					Region: Region{Base: 0x10000, Size: 1 << 16, Scope: Partition},
					Divide: true,
				},
				Critical{Lock: 0, Body: []Step{Compute{N: 10}}},
				Barrier{ID: 1},
			}},
		},
	}
}

func TestValidateAcceptsGoodProgram(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		p    Program
	}{
		{"no name", Program{Steps: []Step{Compute{N: 1}}}},
		{"negative compute", Program{Name: "x", Steps: []Step{Compute{N: -1}}}},
		{"bad fpfrac", Program{Name: "x", Steps: []Step{Compute{N: 1, FPFrac: 2}}}},
		{"bad branchfrac", Program{Name: "x", Steps: []Step{Compute{N: 1, BranchFrac: -0.5}}}},
		{"negative accesses", Program{Name: "x", Steps: []Step{Kernel{Accesses: -1, Region: Region{Size: 8}}}}},
		{"empty region", Program{Name: "x", Steps: []Step{Kernel{Accesses: 1}}}},
		{"negative computePerMem", Program{Name: "x", Steps: []Step{Kernel{Accesses: 1, ComputePerMem: -1, Region: Region{Size: 8}}}}},
		{"huge computePerMem", Program{Name: "x", Steps: []Step{Kernel{Accesses: 1, ComputePerMem: 1e9, Region: Region{Size: 8}}}}},
		{"NaN computePerMem", Program{Name: "x", Steps: []Step{Kernel{Accesses: 1, ComputePerMem: math.NaN(), Region: Region{Size: 8}}}}},
		{"negative stride", Program{Name: "x", Steps: []Step{Kernel{Accesses: 1, StrideBytes: -8, Region: Region{Size: 8}}}}},
		{"bad writefrac", Program{Name: "x", Steps: []Step{Kernel{Accesses: 1, WriteFrac: 1.5, Region: Region{Size: 8}}}}},
		{"bad jitter", Program{Name: "x", Steps: []Step{Kernel{Accesses: 1, Jitter: 1, Region: Region{Size: 8}}}}},
		{"NaN compute fpfrac", Program{Name: "x", Steps: []Step{Compute{N: 1, FPFrac: math.NaN()}}}},
		{"NaN compute branchfrac", Program{Name: "x", Steps: []Step{Compute{N: 1, BranchFrac: math.NaN()}}}},
		{"NaN kernel fpfrac", Program{Name: "x", Steps: []Step{Kernel{Accesses: 1, FPFrac: math.NaN(), Region: Region{Size: 8}}}}},
		{"NaN kernel branchfrac", Program{Name: "x", Steps: []Step{Kernel{Accesses: 1, BranchFrac: math.NaN(), Region: Region{Size: 8}}}}},
		{"NaN writefrac", Program{Name: "x", Steps: []Step{Kernel{Accesses: 1, WriteFrac: math.NaN(), Region: Region{Size: 8}}}}},
		{"NaN hotfrac", Program{Name: "x", Steps: []Step{Kernel{Accesses: 1, HotFrac: math.NaN(), Region: Region{Size: 8}}}}},
		{"NaN jitter", Program{Name: "x", Steps: []Step{Kernel{Accesses: 1, Jitter: math.NaN(), Region: Region{Size: 8}}}}},
		{"negative barrier", Program{Name: "x", Steps: []Step{Barrier{ID: -1}}}},
		{"negative lock", Program{Name: "x", Steps: []Step{Critical{Lock: -1}}}},
		{"barrier id 1<<40", Program{Name: "x", Steps: []Step{Barrier{ID: 1 << 40}}}},
		{"barrier id 1<<31", Program{Name: "x", Steps: []Step{Barrier{ID: 1 << 31}}}},
		{"lock id 1<<40", Program{Name: "x", Steps: []Step{Critical{Lock: 1 << 40}}}},
		{"lock id 1<<31", Program{Name: "x", Steps: []Step{Critical{Lock: 1 << 31}}}},
		{"compute count past int32", Program{Name: "x", Steps: []Step{Compute{N: 1<<32 + 5}}}},
		{"compute count 3e9", Program{Name: "x", Steps: []Step{Compute{N: 3e9}}}},
		{"negative loop", Program{Name: "x", Steps: []Step{Loop{Times: -1}}}},
		{"nested bad", Program{Name: "x", Steps: []Step{Loop{Times: 1, Body: []Step{Compute{N: -5}}}}}},
		{"serial bad", Program{Name: "x", Steps: []Step{Serial{Body: []Step{Barrier{ID: -2}}}}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestMaxIDs(t *testing.T) {
	p := validProgram()
	if got := p.MaxBarrierID(); got != 1 {
		t.Errorf("MaxBarrierID=%d, want 1", got)
	}
	if got := p.MaxLockID(); got != 0 {
		t.Errorf("MaxLockID=%d, want 0", got)
	}
	empty := &Program{Name: "e", Steps: []Step{Compute{N: 1}}}
	if empty.MaxBarrierID() != -1 || empty.MaxLockID() != -1 {
		t.Error("program without sync should report -1")
	}
}

func TestStreamDeterministic(t *testing.T) {
	p := validProgram()
	s1, err := NewStream(p, 1, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewStream(p, 1, 4, 99)
	for i := 0; i < 10000; i++ {
		a, b := s1.Next(), s2.Next()
		if a != b {
			t.Fatalf("event %d differs: %+v vs %+v", i, a, b)
		}
		if a.Kind == EvDone {
			return
		}
	}
	t.Fatal("program did not terminate")
}

func TestStreamThreadsDiverge(t *testing.T) {
	p := validProgram()
	c0, i0, err := CountEvents(p, 0, 4, 7, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c1, i1, err := CountEvents(p, 1, 4, 7, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Thread 0 executes the serial section; thread 1 does not.
	if i0 <= i1 {
		t.Errorf("thread 0 instructions %d should exceed thread 1 %d (serial section)", i0, i1)
	}
	// Both see the same barrier count: 1 + 2 loop iterations.
	if c0[EvBarrier] != 3 || c1[EvBarrier] != 3 {
		t.Errorf("barrier counts %d/%d, want 3", c0[EvBarrier], c1[EvBarrier])
	}
	// Lock pairs balance.
	for _, c := range []map[EventKind]int{c0, c1} {
		if c[EvLockAcq] != c[EvLockRel] {
			t.Errorf("unbalanced lock events: %d acq, %d rel", c[EvLockAcq], c[EvLockRel])
		}
		if c[EvLockAcq] != 2 {
			t.Errorf("lock acquisitions %d, want 2", c[EvLockAcq])
		}
	}
}

func TestStreamInvalidThread(t *testing.T) {
	p := validProgram()
	if _, err := NewStream(p, -1, 4, 0); err == nil {
		t.Error("accepted negative tid")
	}
	if _, err := NewStream(p, 4, 4, 0); err == nil {
		t.Error("accepted tid == n")
	}
	if _, err := NewStream(p, 0, 0, 0); err == nil {
		t.Error("accepted zero threads")
	}
	bad := &Program{Name: "bad", Steps: []Step{Compute{N: -1}}}
	if _, err := NewStream(bad, 0, 1, 0); err == nil {
		t.Error("accepted invalid program")
	}
}

func TestStreamDoneSticky(t *testing.T) {
	p := &Program{Name: "tiny", Steps: []Step{Compute{N: 5}}}
	s, err := NewStream(p, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev := s.Next()
	if ev.Kind != EvCompute || ev.N != 5 {
		t.Fatalf("first event %+v", ev)
	}
	for i := 0; i < 3; i++ {
		if got := s.Next(); got.Kind != EvDone {
			t.Fatalf("post-done event %+v", got)
		}
	}
	if !s.Done() {
		t.Error("Done() false after EvDone")
	}
}

func TestDivideWork(t *testing.T) {
	if got := divideWork(100, 4); got != 25 {
		t.Errorf("divideWork(100,4)=%d", got)
	}
	if got := divideWork(3, 16); got != 1 {
		t.Errorf("small work should round up to 1, got %d", got)
	}
	if got := divideWork(0, 4); got != 0 {
		t.Errorf("divideWork(0,4)=%d", got)
	}
}

func TestKernelDivisionScalesWork(t *testing.T) {
	k := Kernel{
		Accesses: 1024, ComputePerMem: 2,
		Region: Region{Base: 0, Size: 1 << 16, Scope: Shared},
		Divide: true,
	}
	p := &Program{Name: "k", Steps: []Step{k}}
	_, i1, err := CountEvents(p, 0, 1, 5, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, i8, err := CountEvents(p, 0, 8, 5, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(i1) / float64(i8)
	if ratio < 5 || ratio > 12 {
		t.Errorf("8-thread share ratio %g, want ≈8", ratio)
	}
}

func TestKernelStrideStaysInWindow(t *testing.T) {
	k := Kernel{
		Accesses: 4096, StrideBytes: 64,
		Region: Region{Base: 0x100000, Size: 1 << 12, Scope: Partition},
		Divide: false,
	}
	p := &Program{Name: "scan", Steps: []Step{k}}
	s, err := NewStream(p, 2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	base, size := k.Region.window(2, 4)
	for {
		ev := s.Next()
		if ev.Kind == EvDone {
			break
		}
		if ev.Kind == EvLoad || ev.Kind == EvStore {
			if ev.Addr < base || ev.Addr >= base+size {
				t.Fatalf("address %#x outside window [%#x,%#x)", ev.Addr, base, base+size)
			}
		}
	}
}

func TestKernelWriteFraction(t *testing.T) {
	k := Kernel{
		Accesses: 20000, WriteFrac: 0.25,
		Region: Region{Base: 0, Size: 1 << 16, Scope: Shared},
	}
	p := &Program{Name: "w", Steps: []Step{k}}
	counts, _, err := CountEvents(p, 0, 1, 11, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	total := counts[EvLoad] + counts[EvStore]
	frac := float64(counts[EvStore]) / float64(total)
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("store fraction %g, want ≈0.25", frac)
	}
}

func TestKernelJitterVariesAcrossThreads(t *testing.T) {
	k := Kernel{
		Accesses: 10000, Jitter: 0.4,
		Region: Region{Base: 0, Size: 1 << 16, Scope: Shared},
	}
	p := &Program{Name: "j", Steps: []Step{k}}
	var counts []int
	for tid := 0; tid < 8; tid++ {
		c, _, err := CountEvents(p, tid, 8, 123, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, c[EvLoad]+c[EvStore])
	}
	allSame := true
	for _, c := range counts[1:] {
		if c != counts[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("jitter produced identical per-thread work")
	}
}

func TestCountEventsLimit(t *testing.T) {
	p := &Program{Name: "big", Steps: []Step{
		Kernel{Accesses: 1000, Region: Region{Size: 1 << 12}},
	}}
	if _, _, err := CountEvents(p, 0, 1, 1, 10); err == nil {
		t.Error("limit not enforced")
	}
}

// Property: every stream terminates with balanced lock events and exactly
// the program's barrier count, for arbitrary (tid, n, seed).
func TestQuickStreamWellFormed(t *testing.T) {
	p := validProgram()
	f := func(tidRaw, nRaw uint8, seed uint64) bool {
		n := 1 + int(nRaw)%16
		tid := int(tidRaw) % n
		counts, _, err := CountEvents(p, tid, n, seed, 1<<22)
		if err != nil {
			return false
		}
		return counts[EvLockAcq] == counts[EvLockRel] && counts[EvBarrier] == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidateReturnsTypedErrors(t *testing.T) {
	p := Program{Name: "x", Steps: []Step{Compute{N: 1}, Kernel{Accesses: -1, Region: Region{Size: 8}}}}
	err := p.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("want *ValidationError, got %T: %v", err, err)
	}
	if ve.Step != 1 || ve.Program != "x" {
		t.Errorf("provenance %+v", ve)
	}
	// Program-level defects carry Step == -1 and no name.
	err = (&Program{Steps: []Step{Compute{N: 1}}}).Validate()
	if !errors.As(err, &ve) || ve.Step != -1 {
		t.Errorf("nameless program: %v", err)
	}
	// Nested defects report the index within the enclosing body.
	err = (&Program{Name: "y", Steps: []Step{Loop{Times: 1, Body: []Step{Compute{N: 1}, Compute{N: -1}}}}}).Validate()
	if !errors.As(err, &ve) || ve.Step != 1 {
		t.Errorf("nested defect: %+v", ve)
	}
}

// TestThresholdBoundaries checks the integer form of a Bernoulli draw
// against the float compare it replaces, at the two draws either side of
// each threshold: x = T-1 must pass RNG.Float64() < p and x = T must
// fail it. The low 11 bits of a draw, which Float64 discards, are set to
// show bernoulli discards them too.
func TestThresholdBoundaries(t *testing.T) {
	for _, p := range []float64{0, 0x1p-60, 0x1p-53, 0.1, 0.3, 0.5, 0.93, 1 - 0x1p-53, 1, math.NaN()} {
		tt := threshold(p)
		if tt > 1<<53 {
			t.Fatalf("p=%g: threshold %d above 2^53", p, tt)
		}
		for _, x := range []uint64{tt - 1, tt} {
			if x >= 1<<53 {
				continue // T-1 below 0, or T past the largest draw
			}
			want := float64(x)*0x1p-53 < p
			if got := bernoulli(x<<11|0x7ff, tt) == 1; got != want {
				t.Errorf("p=%g T=%d: draw %d passes %v, float compare says %v", p, tt, x, got, want)
			}
			if want != (x == tt-1) {
				t.Errorf("p=%g T=%d: draw %d is on the wrong side of the threshold", p, tt, x)
			}
		}
	}
}

// TestValidateRejectsWordlessHotWindow pins the rule that a hot window
// must hold one 8-byte word: a smaller one has no address to draw. A tiny
// Partition region is accepted, because its per-thread window is never
// below 8 bytes.
func TestValidateRejectsWordlessHotWindow(t *testing.T) {
	kernel := func(r Region, hotBytes uint64) *Program {
		return &Program{Name: "hot", Steps: []Step{Barrier{ID: 0}, Kernel{
			Accesses: 100, ComputePerMem: 4, WriteFrac: 0.3, HotFrac: 0.5, HotBytes: hotBytes, Region: r,
		}}}
	}
	for name, p := range map[string]*Program{
		"4-byte shared":     kernel(Region{Size: 4, Scope: Shared}, 0),
		"4-byte per-thread": kernel(Region{Size: 4, Scope: PerThread}, 0),
		"HotBytes 4":        kernel(Region{Size: 1 << 20, Scope: Shared}, 4),
	} {
		var ve *ValidationError
		if err := p.Validate(); !errors.As(err, &ve) || ve.Step != 1 {
			t.Errorf("%s: Validate = %v, want a *ValidationError at step 1", name, err)
		}
		if _, err := NewStream(p, 0, 2, 1); err == nil {
			t.Errorf("%s: NewStream accepted the program", name)
		}
	}
	p := kernel(Region{Size: 4, Scope: Partition}, 0)
	if err := p.Validate(); err != nil {
		t.Fatalf("4-byte partition: %v", err)
	}
	if _, _, err := CountEvents(p, 1, 2, 1, 1<<12); err != nil {
		t.Fatalf("4-byte partition: %v", err)
	}
}

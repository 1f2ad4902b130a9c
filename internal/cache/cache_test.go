package cache

import (
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	good := Geometry{SizeBytes: 64 << 10, LineBytes: 64, Ways: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("good geometry rejected: %v", err)
	}
	bad := []Geometry{
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
		{SizeBytes: 1024, LineBytes: 0, Ways: 2},
		{SizeBytes: 1024, LineBytes: 48, Ways: 2}, // not power of two
		{SizeBytes: 1000, LineBytes: 64, Ways: 2}, // line !| size
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{SizeBytes: 1024, LineBytes: 64, Ways: 5}, // ways !| lines
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("geometry %+v accepted", g)
		}
	}
	if got := good.Sets(); got != 512 {
		t.Errorf("Sets=%d, want 512", got)
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String()=%q, want %q", s, s.String(), w)
		}
	}
	if State(9).String() != "?" {
		t.Error("unknown state should be ?")
	}
}

func smallArray(t *testing.T) *Array {
	t.Helper()
	a, err := NewArray(Geometry{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestArrayBasicOps(t *testing.T) {
	a := smallArray(t)
	la := a.LineAddr(0x1000)
	if st := lookup(a, la); st != Invalid {
		t.Fatalf("empty cache hit: %v", st)
	}
	a.Insert(la, Exclusive)
	if st := lookup(a, la); st != Exclusive {
		t.Fatalf("after insert: %v", st)
	}
	if v := a.Insert(la, Modified); v.Valid {
		t.Fatalf("state update evicted %+v", v)
	}
	if st := a.Peek(la); st != Modified {
		t.Fatalf("Peek=%v", st)
	}
}

// lookup probes a as the hierarchy probes its L2 on a miss: one slot
// scan, and a hit moves the line to the most-recent way.
func lookup(a *Array, la uint64) State {
	set, way, ok := a.slot(la)
	if !ok {
		return Invalid
	}
	toFront(set, way, set[way])
	return State(set[0] & 0xFF)
}

func TestLineAddrMapping(t *testing.T) {
	a := smallArray(t)
	if a.LineAddr(0) != a.LineAddr(63) {
		t.Error("same line split")
	}
	if a.LineAddr(63) == a.LineAddr(64) {
		t.Error("adjacent lines merged")
	}
}

func TestLRUEviction(t *testing.T) {
	a := smallArray(t) // 8 sets, 2 ways
	sets := uint64(a.Geometry().Sets())
	// Three lines mapping to set 0: line addresses 0, sets, 2*sets.
	a.Insert(0, Shared)
	a.Insert(sets, Shared)
	lookup(a, 0) // make line 0 most recently used
	v := a.Insert(2*sets, Shared)
	if !v.Valid || v.LineAddr != sets {
		t.Fatalf("victim=%+v, want line %d", v, sets)
	}
	if a.Peek(0) == Invalid {
		t.Error("MRU line evicted")
	}
	if a.Peek(2*sets) == Invalid {
		t.Error("inserted line missing")
	}
}

func TestInsertExistingUpdatesState(t *testing.T) {
	a := smallArray(t)
	a.Insert(7, Shared)
	v := a.Insert(7, Modified)
	if v.Valid {
		t.Error("reinsert evicted something")
	}
	if a.Peek(7) != Modified {
		t.Error("reinsert did not update state")
	}
	if a.CountValid() != 1 {
		t.Errorf("CountValid=%d", a.CountValid())
	}
}

func TestNewArrayRejectsBadGeometry(t *testing.T) {
	if _, err := NewArray(Geometry{}); err == nil {
		t.Error("accepted zero geometry")
	}
}

// Property: after inserting any sequence of lines, CountValid never exceeds
// capacity and every reported victim was previously inserted.
func TestQuickArrayCapacity(t *testing.T) {
	g := Geometry{SizeBytes: 512, LineBytes: 64, Ways: 2} // 8 lines
	f := func(addrs []uint16) bool {
		a, err := NewArray(g)
		if err != nil {
			return false
		}
		seen := map[uint64]bool{}
		for _, ad := range addrs {
			la := a.LineAddr(uint64(ad) << 6)
			v := a.Insert(la, Shared)
			seen[la] = true
			if v.Valid && !seen[v.LineAddr] {
				return false
			}
			if a.CountValid() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

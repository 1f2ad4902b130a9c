package cache

import "fmt"

// CheckCoherence verifies the MESI protocol invariants across the private
// L1s and the inclusion property against the shared L2:
//
//  1. SWMR — a line in M or E in one cache is Invalid everywhere else.
//  2. Shared copies never coexist with an owner (M/E).
//  3. Inclusion — every valid L1 line's covering L2 line is present.
//
// It returns the first violation found, or nil. The check is O(total
// valid lines) and intended for tests and debugging assertions.
func (h *Hierarchy) CheckCoherence() error {
	type holder struct {
		core  int
		state State
	}
	seen := make(map[uint64][]holder)
	for i, k := range h.l1 {
		if k != 0 {
			c := i % h.stride / h.ways
			seen[k>>8] = append(seen[k>>8], holder{core: c, state: State(k & 0xFF)})
		}
	}
	for la, holders := range seen {
		owners := 0
		sharers := 0
		for _, hd := range holders {
			switch hd.state {
			case Modified, Exclusive:
				owners++
			case Shared:
				sharers++
			}
		}
		if owners > 1 {
			return fmt.Errorf("cache: SWMR violated: line %#x has %d owners (%v)", la, owners, holders)
		}
		if owners == 1 && sharers > 0 {
			return fmt.Errorf("cache: line %#x has an owner and %d sharers (%v)", la, sharers, holders)
		}
		// Inclusion: the covering L2 line must be valid.
		if h.l2.Peek(la>>h.l2Shift) == Invalid {
			return fmt.Errorf("cache: inclusion violated: L1 line %#x has no L2 copy", la)
		}
	}
	return nil
}

// Package cache implements the CMP's cache hierarchy: per-core private L1
// data caches kept coherent with a MESI protocol over the snooping bus,
// backed by a shared inclusive L2 and off-chip DRAM (paper Table 1).
package cache

import (
	"fmt"
	"math/bits"
)

// State is a MESI coherence state.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Geometry describes one cache array.
type Geometry struct {
	SizeBytes int
	LineBytes int
	Ways      int
}

// Validate checks the geometry: power-of-two line size, line divides size,
// ways divide the line count.
func (g Geometry) Validate() error {
	switch {
	case g.SizeBytes <= 0:
		return fmt.Errorf("cache: size %d", g.SizeBytes)
	case g.LineBytes <= 0 || bits.OnesCount(uint(g.LineBytes)) != 1:
		return fmt.Errorf("cache: line size %d must be a positive power of two", g.LineBytes)
	case g.SizeBytes%g.LineBytes != 0:
		return fmt.Errorf("cache: line %d does not divide size %d", g.LineBytes, g.SizeBytes)
	case g.Ways <= 0 || (g.SizeBytes/g.LineBytes)%g.Ways != 0:
		return fmt.Errorf("cache: %d ways incompatible with %d lines", g.Ways, g.SizeBytes/g.LineBytes)
	}
	return nil
}

// Sets returns the set count.
func (g Geometry) Sets() int { return g.SizeBytes / g.LineBytes / g.Ways }

// A cache line is one packed uint64 — tag<<8 | state, 0 when Invalid —
// because tag probes are the hottest loads of the whole simulator and
// footprint is what they pay for: a probe is one load and two compares,
// and a whole 2-way set is a single host cache line. Tags therefore carry
// 56 bits — ample, since line addresses are byte addresses shifted right
// by the line-size log (the simulator's synthetic address spaces top out
// far below 2^56 lines).
//
// Replacement is true LRU, represented as recency order: within a set the
// ways are kept most-recently-used first, so a hit rotates the line to
// the front and the victim is always the last way. That is exactly the
// eviction order timestamp LRU produces, without spending a second word
// per line on the timestamp or a store per hit on refreshing it.

// Array is one set-associative cache array with MESI line states and true
// LRU replacement. The arrays of a bank share one set-interleaved backing
// store (see newBank); standalone arrays own their lines.
type Array struct {
	geom      Geometry
	lineShift uint
	setMask   uint64
	sets      uint64
	ways      int
	stride    int // backing-row advance per set; == ways for standalone arrays
	setsPow2  bool
	lines     []uint64 // len == sets*stride, this array's ways at row offset 0
}

// NewArray builds an empty standalone array.
func NewArray(g Geometry) (*Array, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return newArray(g, make([]uint64, g.Sets()*g.Ways), g.Ways), nil
}

// newArray lays an array of geometry g over lines, whose rows advance
// stride words per set: g.Ways for a standalone array, wider in a bank.
func newArray(g Geometry, lines []uint64, stride int) *Array {
	sets := uint64(g.Sets())
	return &Array{
		geom:      g,
		lineShift: uint(bits.TrailingZeros(uint(g.LineBytes))),
		setMask:   sets - 1,
		sets:      sets,
		ways:      g.Ways,
		stride:    stride,
		setsPow2:  sets&(sets-1) == 0,
		lines:     lines,
	}
}

// newBank lays n identical arrays over one backing buffer of
// g.Sets()*g.Ways*n words, interleaved by set: set s holds array 0's
// ways, then array 1's, and so on, contiguously. A coherence snoop probes
// every array at the same set, so interleaving turns the snoop loop's n
// scattered reads into one sequential walk — the difference between n
// cache misses and a prefetchable stream. Each returned Array still
// behaves exactly like a standalone NewArray (same LRU, same states);
// only the memory layout is shared.
func newBank(g Geometry, n int, backing []uint64) []*Array {
	arrays := make([]*Array, n)
	for i := range arrays {
		arrays[i] = newArray(g, backing[i*g.Ways:], g.Ways*n)
	}
	return arrays
}

// Geometry returns the array geometry.
func (a *Array) Geometry() Geometry { return a.geom }

// LineAddr maps a byte address to its line address.
func (a *Array) LineAddr(addr uint64) uint64 { return addr >> a.lineShift }

func (a *Array) setOf(lineAddr uint64) []uint64 {
	// Sets may not be a power of two (odd ways); use modulo then.
	var idx uint64
	if a.setsPow2 {
		idx = lineAddr & a.setMask
	} else {
		idx = lineAddr % a.sets
	}
	start := int(idx) * a.stride
	return a.lines[start : start+a.ways]
}

// Lookup returns the state of the line holding addr, or Invalid. A hit
// refreshes LRU by rotating the line to the most-recent position.
func (a *Array) Lookup(lineAddr uint64) State {
	set := a.setOf(lineAddr)
	probe := lineAddr << 8
	for i := range set {
		if k := set[i]; k != 0 && k&^0xFF == probe {
			for j := i; j > 0; j-- {
				set[j] = set[j-1]
			}
			set[0] = k
			return State(k & 0xFF)
		}
	}
	return Invalid
}

// Peek returns the line state without touching LRU.
func (a *Array) Peek(lineAddr uint64) State {
	set := a.setOf(lineAddr)
	probe := lineAddr << 8
	for i := range set {
		if k := set[i]; k != 0 && k&^0xFF == probe {
			return State(k & 0xFF)
		}
	}
	return Invalid
}

// SetState transitions an existing line to st (or drops it for Invalid).
// It reports whether the line was present.
func (a *Array) SetState(lineAddr uint64, st State) bool {
	set := a.setOf(lineAddr)
	probe := lineAddr << 8
	for i := range set {
		if k := set[i]; k != 0 && k&^0xFF == probe {
			if st == Invalid {
				set[i] = 0
			} else {
				set[i] = probe | uint64(st)
			}
			return true
		}
	}
	return false
}

// Victim describes a line displaced by Insert.
type Victim struct {
	LineAddr uint64
	State    State
	Valid    bool
}

// Insert places lineAddr with state st, evicting the LRU way if the set is
// full, and returns the victim (Valid=false if an empty way was used).
// Inserting a line that is already present just updates its state (and,
// like any insert, makes the line most recent).
func (a *Array) Insert(lineAddr uint64, st State) Victim {
	set := a.setOf(lineAddr)
	probe := lineAddr << 8
	// The insert slot is the line itself if present, else the first empty
	// way, else the last (least-recent) way, whose occupant is the victim.
	// Presence is checked across the whole set before falling back to an
	// empty way: invalidations can leave a hole in front of the line, and
	// filling the hole instead would duplicate the line.
	pos := -1
	for i := range set {
		if k := set[i]; k != 0 && k&^0xFF == probe {
			pos = i
			break
		}
	}
	var v Victim
	if pos < 0 {
		for i := range set {
			if set[i] == 0 {
				pos = i
				break
			}
		}
	}
	if pos < 0 {
		pos = len(set) - 1
		k := set[pos]
		v = Victim{LineAddr: k >> 8, State: State(k & 0xFF), Valid: true}
	}
	for j := pos; j > 0; j-- {
		set[j] = set[j-1]
	}
	set[0] = probe | uint64(st)
	return v
}

// Invalidate removes the line and returns its prior state.
func (a *Array) Invalidate(lineAddr uint64) State {
	set := a.setOf(lineAddr)
	probe := lineAddr << 8
	for i := range set {
		if k := set[i]; k != 0 && k&^0xFF == probe {
			set[i] = 0
			return State(k & 0xFF)
		}
	}
	return Invalid
}

// CountValid returns the number of valid lines (test/debug helper).
func (a *Array) CountValid() int {
	n := 0
	for s := 0; s < int(a.sets); s++ {
		row := a.lines[s*a.stride : s*a.stride+a.ways]
		for i := range row {
			if row[i] != 0 {
				n++
			}
		}
	}
	return n
}

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
// LRU replacement. The hierarchy's L2 is one; its L1s share a
// set-interleaved bank that Hierarchy walks directly.
type Array struct {
	geom      Geometry
	lineShift uint
	setMask   uint64
	sets      uint64
	ways      int
	setsPow2  bool
	lines     []uint64 // len == sets*ways
}

// NewArray builds an empty standalone array.
func NewArray(g Geometry) (*Array, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return newArray(g, make([]uint64, g.Sets()*g.Ways)), nil
}

// newArray lays an array of geometry g over lines, which must hold
// g.Sets()*g.Ways zero words.
func newArray(g Geometry, lines []uint64) *Array {
	sets := uint64(g.Sets())
	return &Array{
		geom:      g,
		lineShift: uint(bits.TrailingZeros(uint(g.LineBytes))),
		setMask:   sets - 1,
		sets:      sets,
		ways:      g.Ways,
		setsPow2:  sets&(sets-1) == 0,
		lines:     lines,
	}
}

// Geometry returns the array geometry.
func (a *Array) Geometry() Geometry { return a.geom }

// LineAddr maps a byte address to its line address.
func (a *Array) LineAddr(addr uint64) uint64 { return addr >> a.lineShift }

// slot scans lineAddr's set once without touching LRU. It returns the set
// and, when the line is present, its way. When the line is absent, way is
// where Insert puts it: the first empty way, else the last (least-recent)
// one, whose occupant is the victim. Presence is checked across the whole
// set before settling on an empty way: invalidations can leave a hole in
// front of the line, and filling the hole would duplicate the line.
func (a *Array) slot(lineAddr uint64) (set []uint64, way int, present bool) {
	// Sets may not be a power of two (odd ways); use modulo then.
	var idx uint64
	if a.setsPow2 {
		idx = lineAddr & a.setMask
	} else {
		idx = lineAddr % a.sets
	}
	start := int(idx) * a.ways
	set = a.lines[start : start+a.ways]
	probe := lineAddr << 8
	way = -1
	for i, k := range set {
		if k == 0 {
			if way < 0 {
				way = i
			}
		} else if k&^0xFF == probe {
			return set, i, true
		}
	}
	if way < 0 {
		way = len(set) - 1
	}
	return set, way, false
}

// toFront moves way pos of set to the most-recent position, shifting the
// ways in front of it back by one, and stores word there.
func toFront(set []uint64, pos int, word uint64) {
	for j := pos; j > 0; j-- {
		set[j] = set[j-1]
	}
	set[0] = word
}

// Peek returns the line state without touching LRU.
func (a *Array) Peek(lineAddr uint64) State {
	if set, way, ok := a.slot(lineAddr); ok {
		return State(set[way] & 0xFF)
	}
	return Invalid
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
	set, way, present := a.slot(lineAddr)
	return insertAt(set, way, present, lineAddr<<8|uint64(st))
}

// insertAt stores word at way of set, as slot found it, makes it most
// recent, and returns the line it displaced.
func insertAt(set []uint64, way int, present bool, word uint64) Victim {
	var v Victim
	if k := set[way]; !present && k != 0 {
		v = Victim{LineAddr: k >> 8, State: State(k & 0xFF), Valid: true}
	}
	toFront(set, way, word)
	return v
}

// CountValid returns the number of valid lines (test/debug helper).
func (a *Array) CountValid() int {
	n := 0
	for _, k := range a.lines {
		if k != 0 {
			n++
		}
	}
	return n
}

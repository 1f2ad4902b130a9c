// Package mem models the off-chip DRAM channel.
//
// Its two timing properties are central to the paper's findings:
//
//  1. The round-trip latency is fixed in *wall-clock* time (75 ns, paper
//     Table 1), so when the chip lowers its frequency the latency costs
//     fewer cycles — the "narrowing processor–memory speed gap" that lets
//     memory-bound applications exceed their nominal speedups (paper
//     §4.1/§4.2).
//  2. The channel has finite bandwidth, also fixed in wall-clock time, so
//     memory contention grows with core count and erodes parallel
//     efficiency.
package mem

import "cmppower/internal/check"

// QueueWaitBoundsNs are the fixed upper bucket edges, in nanoseconds, of
// the per-access channel-queue-wait histogram. Geometric around the 1.2 ns
// default occupancy, reaching past the 75 ns latency so a saturated
// 16-core channel still resolves: bucket i of QueueHist counts accesses
// that queued at most QueueWaitBoundsNs[i] ns; the final QueueHist slot is
// the overflow (+Inf) bucket.
var QueueWaitBoundsNs = [...]float64{0, 1, 3, 10, 30, 100, 300}

// DRAM is a single memory channel. All times are in seconds (wall clock).
type DRAM struct {
	latency   float64 // round-trip latency of one access, s
	occupancy float64 // channel occupancy per access, s
	freeAt    float64 // absolute time the channel next idles, s

	// Accesses counts reads and writebacks served.
	Accesses int64
	// BusySeconds accumulates channel occupancy.
	BusySeconds float64
	// QueueSeconds accumulates time requests spent waiting for the channel.
	QueueSeconds float64
	// QueueHist bins each access's queue wait (in ns) on QueueWaitBoundsNs
	// (last slot +Inf). Always-on integer bins, same rationale as
	// bus.Bus.WaitHist: cheap, and exact to merge across sweep workers.
	QueueHist [len(QueueWaitBoundsNs) + 1]int64
}

// New returns a DRAM channel with the given round-trip latency and
// per-access channel occupancy, both in seconds. Failures are
// *check.Error values naming the offending parameter ("latency" or
// "occupancy").
func New(latencySec, occupancySec float64) (*DRAM, error) {
	if !(latencySec > 0 && check.Finite(latencySec)) {
		return nil, check.Fail("latency", latencySec, "mem: latency %g must be positive and finite", latencySec)
	}
	if !check.In(occupancySec, 0, latencySec) {
		return nil, check.Fail("occupancy", occupancySec, "mem: occupancy %g outside [0, latency]", occupancySec)
	}
	return &DRAM{latency: latencySec, occupancy: occupancySec}, nil
}

// Default returns the paper's 75 ns round-trip channel with 1.2 ns of
// per-access occupancy. The channel is heavily banked, so per-access
// occupancy sits far below latency; the value is chosen so that one
// memory-bound core leaves headroom while sixteen saturate the channel.
//
// The panic below is a documented programmer-error invariant, not a
// runtime error path: the constants are fixed at compile time and valid
// by construction, so reaching it means the source was edited
// inconsistently.
func Default() *DRAM {
	d, err := New(75e-9, 1.2e-9)
	if err != nil {
		panic(err)
	}
	return d
}

// Latency returns the round-trip latency in seconds.
func (d *DRAM) Latency() float64 { return d.latency }

// Access serves a request arriving at nowSec and returns the absolute time
// its data is available.
func (d *DRAM) Access(nowSec float64) float64 {
	start := nowSec
	if d.freeAt > start {
		start = d.freeAt
	}
	wait := start - nowSec
	d.QueueSeconds += wait
	waitNs := wait * 1e9
	i := 0
	for i < len(QueueWaitBoundsNs) && waitNs > QueueWaitBoundsNs[i] {
		i++
	}
	d.QueueHist[i]++
	d.freeAt = start + d.occupancy
	d.BusySeconds += d.occupancy
	d.Accesses++
	return start + d.latency
}

// Utilization returns channel busy time over elapsed seconds.
func (d *DRAM) Utilization(elapsedSec float64) float64 {
	if elapsedSec <= 0 {
		return 0
	}
	u := d.BusySeconds / elapsedSec
	if u > 1 {
		u = 1
	}
	return u
}

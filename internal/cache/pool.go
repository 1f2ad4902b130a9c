package cache

import "sync"

// linePools recycles the line buffers of released hierarchies (see
// Hierarchy.Release) for the next hierarchy of the same shape, so a run
// does not zero-allocate its Table 1 tag arrays — 256 KiB for the L2
// alone — and leave them to the garbage collector. There is one
// sync.Pool per buffer length: the core count and any CacheOverride
// geometry change a bank's length, and a single mixed pool would hand an
// L2-sized buffer to an L1 request and churn. The lengths in use form a
// small set (core counts times the few geometries experiments sweep), so
// the map stays small. Values are *[]uint64, so putting a buffer back
// allocates nothing.
var linePools sync.Map // buffer length → *sync.Pool

// takeLines returns a buffer of n zero words: a recycled one when a
// released hierarchy left one of that length, else a fresh one. A
// recycled buffer is cleared here, so a hierarchy built on it starts
// exactly as one built on make's memory does, with every way Invalid.
func takeLines(n int) *[]uint64 {
	if p, ok := linePools.Load(n); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			buf := v.(*[]uint64)
			clear(*buf)
			return buf
		}
	}
	buf := make([]uint64, n)
	return &buf
}

// putLines hands buf to the free list for its length.
func putLines(buf *[]uint64) {
	p, ok := linePools.Load(len(*buf))
	if !ok {
		p, _ = linePools.LoadOrStore(len(*buf), new(sync.Pool))
	}
	p.(*sync.Pool).Put(buf)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public entry point. Parent names
// the span whose work logically includes this one; because the benchmark
// replays each layer's calls one after another rather than from inside
// the program, a child's interval does not lie inside its parent's, and
// a layer's self time is its own duration minus its children's durations.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for a root span
	Unit   int    `json:"unit"`             // the replayed run or request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory for the whole run; write dumps them once
// the benchmark has finished measuring.
type tracer struct {
	t0    time.Time
	spans []span
	units int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// unit returns a fresh identifier for the spans of one replayed run or
// request.
func (t *tracer) unit() int {
	t.units++
	return t.units
}

// time runs fn as a span named name under parent and returns the span's
// id, so later spans can name it as their parent.
func (t *tracer) time(name string, parent, unit int, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Unit: unit, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: time.Since(start).Nanoseconds(),
	})
	return len(t.spans), err
}

// layerTimes sums, per span name, the total duration and the total self
// time in seconds. Self time is clamped at zero per span: a child replayed
// on its own can take longer than the share of its parent it stands for,
// and a negative self time would hide that overshoot instead of showing
// it in the layer sum.
func (t *tracer) layerTimes() (total, self map[string]float64) {
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Dur
		}
	}
	total = make(map[string]float64)
	self = make(map[string]float64)
	for _, s := range t.spans {
		total[s.Name] += float64(s.Dur) / 1e9
		if d := s.Dur - children[s.ID]; d > 0 {
			self[s.Name] += float64(d) / 1e9
		}
	}
	return total, self
}

// treeSelf sums the self times of every span in the trees rooted at
// spans named root, and the roots' durations, in seconds. The first over
// the second is the layer-sum ratio: 1 when the layers beneath account
// for no more than their parents, above 1 by however much they overshoot.
func (t *tracer) treeSelf(root string) (selfSum, rootSum float64) {
	children := make(map[int][]int)
	for i, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	var walk func(i int)
	walk = func(i int) {
		d := t.spans[i].Dur
		for _, c := range children[t.spans[i].ID] {
			d -= t.spans[c].Dur
			walk(c)
		}
		if d > 0 {
			selfSum += float64(d) / 1e9
		}
	}
	for _, i := range children[0] {
		if t.spans[i].Name == root {
			rootSum += float64(t.spans[i].Dur) / 1e9
			walk(i)
		}
	}
	return selfSum, rootSum
}

// write dumps the spans as JSON lines to dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

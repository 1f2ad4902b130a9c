package workload

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzWorkloadIR drives Program's JSON decoder with arbitrary bytes. Any
// input may be rejected (custom workload files are user-supplied), but the
// decoder must never panic, and everything it accepts must survive a
// marshal → unmarshal round trip unchanged — otherwise a study saved to
// disk would silently drift from what was simulated. Everything it
// accepts must also run: thread 0's stream at n = 1 and 3, drained
// through Next and through NextBatch, must not panic and must agree
// event for event, which also checks the batch emitter against the
// reference one.
func FuzzWorkloadIR(f *testing.F) {
	f.Add([]byte(`{"name":"k","steps":[{"type":"compute","n":100,"fpFrac":0.3}]}`))
	f.Add([]byte(`{"name":"k","steps":[
		{"type":"serial","body":[{"type":"compute","n":1000}]},
		{"type":"barrier","id":0},
		{"type":"kernel","accesses":4096,"computePerMem":10,
		 "region":{"base":65536,"size":1048576,"scope":"partition"},"divide":true}]}`))
	f.Add([]byte(`{"name":"l","steps":[{"type":"loop","times":3,"body":[
		{"type":"critical","lock":1,"body":[{"type":"compute","n":5}]}]}]}`))
	f.Add([]byte(`{"name":"bad","steps":[{"type":"warp"}]}`))
	f.Add([]byte(`{"name":"noregion","steps":[{"type":"kernel","accesses":8}]}`))
	f.Add([]byte(`{"name":"hot","steps":[{"type":"loop","times":2,"body":[
		{"type":"kernel","accesses":900,"computePerMem":1.3,"writeFrac":0.4,"strideBytes":24,
		 "hotFrac":0.6,"hotBytes":3000,"jitter":0.3,
		 "region":{"base":4096,"size":100000,"scope":"partition"},"divide":true},
		{"type":"kernel","accesses":900,"computePerMem":6,"branchFrac":0.2,"hotFrac":0.5,
		 "region":{"base":4096,"size":24576,"scope":"shared"}}]}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"name":"scope","steps":[{"type":"kernel","accesses":1,
		"region":{"base":0,"size":64,"scope":"sideways"}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Program
		if err := json.Unmarshal(data, &p); err != nil {
			return // rejection is fine; panics and accept-then-corrupt are not
		}
		// Accepted programs validated on the way in.
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder accepted a program that fails Validate: %v", err)
		}
		out, err := json.Marshal(&p)
		if err != nil {
			t.Fatalf("accepted program failed to re-marshal: %v", err)
		}
		var q Program
		if err := json.Unmarshal(out, &q); err != nil {
			t.Fatalf("re-marshaled program failed to decode: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the program:\n first: %#v\nsecond: %#v", p, q)
		}
		// Loops whose bodies emit nothing make the interpreter spin
		// without delivering an event, which the event budget cannot
		// bound; such programs are valid, just too long to drain here.
		if stepVisits(p.Steps) > 1<<16 {
			return
		}
		for _, n := range []int{1, 3} {
			checkDrains(t, &p, n, 1+len(data)%64)
		}
	})
}

// fuzzEvents caps how many events FuzzWorkloadIR drains per stream.
const fuzzEvents = 4000

// checkDrains drains thread 0 of n through Next and, in bufLen-event
// batches, through NextBatch, up to fuzzEvents events, and fails unless
// the two agree.
func checkDrains(t *testing.T, p *Program, n, bufLen int) {
	ref, err := NewStream(p, 0, n, 1)
	if err != nil {
		t.Fatalf("n=%d: valid program refused: %v", n, err)
	}
	bat, _ := NewStream(p, 0, n, 1)
	var want []Event
	for len(want) < fuzzEvents {
		ev := ref.Next()
		want = append(want, ev)
		if ev.Kind == EvDone {
			break
		}
	}
	buf := make([]Event, bufLen)
	var got []Event
	for len(got) < len(want) {
		k := bat.NextBatch(buf)
		got = append(got, buf[:k]...)
		if buf[k-1].Kind == EvDone {
			break
		}
	}
	if len(got) < len(want) {
		t.Fatalf("n=%d buf=%d: NextBatch ended after %d events, Next after %d", n, bufLen, len(got), len(want))
	}
	for i, ev := range want {
		if got[i] != ev {
			t.Fatalf("n=%d buf=%d: event %d = %+v, Next gave %+v", n, bufLen, i, got[i], ev)
		}
	}
}

// stepVisits is how many steps the interpreter visits running steps,
// with every loop multiplied out (float64, so it saturates instead of
// wrapping).
func stepVisits(steps []Step) float64 {
	v := float64(len(steps))
	for _, s := range steps {
		switch s := s.(type) {
		case Loop:
			v += float64(s.Times) * (stepVisits(s.Body) + 1)
		case Critical:
			v += stepVisits(s.Body)
		case Serial:
			v += stepVisits(s.Body)
		}
	}
	return v
}

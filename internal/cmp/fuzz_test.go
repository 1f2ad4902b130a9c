package cmp

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"cmppower/internal/workload"
)

// fuzzMaxEvents caps each FuzzEngineEquivalence run, so a generated
// program with a huge loop or kernel ends in a budget error instead of
// running for minutes.
const fuzzMaxEvents = 1 << 14

// fuzzMaxID bounds the barrier and lock ids FuzzEngineEquivalence runs:
// the engine sizes its barrier and lock tables by the largest id, so a
// generated id in the billions would ask for gigabytes.
const fuzzMaxID = 1 << 10

// FuzzEngineEquivalence runs generated programs on the fused engine and
// on the event-at-a-time reference loop and requires the two to agree:
// both fail, or both succeed with identical results — cycles, per-core
// stats, activity and interval samples. The program comes from the
// workload JSON IR, as in FuzzWorkloadIR. Each program runs on 1 to 4
// cores, unsampled and sampled, with the default synchronization costs
// and with synchronization that costs nothing, where a woken core
// resumes at its waker's exact clock.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte(`{"name":"k","steps":[
		{"type":"serial","body":[{"type":"compute","n":1000}]},
		{"type":"barrier","id":0},
		{"type":"kernel","accesses":4096,"computePerMem":10,
		 "region":{"base":65536,"size":1048576,"scope":"partition"},"divide":true}]}`))
	f.Add([]byte(`{"name":"l","steps":[{"type":"loop","times":3,"body":[
		{"type":"critical","lock":1,"body":[{"type":"compute","n":5}]}]}]}`))
	f.Add([]byte(`{"name":"hot","steps":[{"type":"loop","times":2,"body":[
		{"type":"kernel","accesses":900,"computePerMem":1.3,"writeFrac":0.4,"strideBytes":24,
		 "hotFrac":0.6,"hotBytes":3000,"jitter":0.3,
		 "region":{"base":4096,"size":100000,"scope":"partition"},"divide":true},
		{"type":"barrier","id":1},
		{"type":"kernel","accesses":900,"computePerMem":6,"branchFrac":0.2,"hotFrac":0.5,
		 "region":{"base":4096,"size":24576,"scope":"shared"}}]}]}`))
	f.Add([]byte(`{"name":"sync","steps":[{"type":"loop","times":4,"body":[
		{"type":"compute","n":0},
		{"type":"critical","lock":0,"body":[
			{"type":"kernel","accesses":3,"region":{"base":0,"size":64,"scope":"shared"}},
			{"type":"critical","lock":2,"body":[{"type":"compute","n":7,"fpFrac":0.5}]}]},
		{"type":"barrier","id":0},
		{"type":"serial","body":[{"type":"kernel","accesses":40,"writeFrac":1,
			"region":{"base":8192,"size":4096,"scope":"perThread"}}]}]}]}`))
	f.Add([]byte(`{"name":"deadlock","steps":[{"type":"serial","body":[{"type":"barrier","id":0}]}]}`))
	p := nominalPoint(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var prog workload.Program
		if err := json.Unmarshal(data, &prog); err != nil {
			return
		}
		if stepVisits(prog.Steps) > 1<<16 || prog.MaxBarrierID() > fuzzMaxID || prog.MaxLockID() > fuzzMaxID {
			return
		}
		for n := 1; n <= 4; n++ {
			for _, freeSync := range []bool{false, true} {
				cfg := DefaultConfig(n, p)
				cfg.MaxEvents = fuzzMaxEvents
				if freeSync {
					cfg.BarrierCycles, cfg.LockCycles = 0, 0
					cfg.Core.IL1MissRate = 0
				}
				name := fmt.Sprintf("n=%d freeSync=%t", n, freeSync)
				want := checkEngines(t, &prog, cfg, name)
				// Sample into about sixteen intervals of the unsampled run;
				// a run that failed or took no time samples every cycle.
				cfg.SampleCycles = 1
				if want != nil && want.Cycles >= 16 {
					cfg.SampleCycles = want.Cycles / 16
				}
				checkEngines(t, &prog, cfg, name+" sampled")
			}
		}
	})
}

// checkEngines runs prog under cfg on the fused engine and on the
// reference loop and fails unless both fail or both return identical
// results. It returns the reference result, nil when the runs failed.
func checkEngines(t *testing.T, prog *workload.Program, cfg Config, name string) *Result {
	t.Helper()
	cfg.Unbatched = true
	want, wantErr := Run(prog, cfg)
	cfg.Unbatched = false
	got, gotErr := Run(prog, cfg)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: reference error %v, fused error %v", name, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: fused differs from reference: %s", name, diffResults(got, want))
	}
	return want
}

// stepVisits is how many steps the interpreter visits running steps,
// with every loop multiplied out (float64, so it saturates instead of
// wrapping). Loops whose bodies emit nothing make the interpreter spin
// without delivering an event, which the event budget cannot bound; the
// fuzz target skips programs with too many visits. The workload
// package's FuzzWorkloadIR applies the same guard.
func stepVisits(steps []workload.Step) float64 {
	v := float64(len(steps))
	for _, s := range steps {
		switch s := s.(type) {
		case workload.Loop:
			v += float64(s.Times) * (stepVisits(s.Body) + 1)
		case workload.Critical:
			v += stepVisits(s.Body)
		case workload.Serial:
			v += stepVisits(s.Body)
		}
	}
	return v
}

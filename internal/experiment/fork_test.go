package experiment

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// TestForkDisabledUnderActiveFaults: runs under active injection advance
// the injector streams and are not pure functions of their key, so the
// fork cache must see zero traffic — no records, no replays.
func TestForkDisabledUnderActiveFaults(t *testing.T) {
	rig := faultyTestRig(t)
	if _, err := rig.SweepScenarioIWith(context.Background(), testApps(t)[:2], []int{1, 2}, SweepConfig{}); err != nil {
		t.Fatal(err)
	}
	st := rig.ForkStats()
	if st.Hits != 0 || st.Misses != 0 || st.Records != 0 || st.Entries != 0 {
		t.Fatalf("faulty sweep used the fork cache: %+v", st)
	}
}

// TestForkCacheEviction: under a budget too small to hold every column's
// checkpoint the cache must evict rather than grow, stay within budget,
// and the sweep must still complete with correct (cold-equal) results.
func TestForkCacheEviction(t *testing.T) {
	apps := testApps(t)
	counts := []int{1, 2, 4}
	cold := testRig(t)
	coldOuts, err := cold.SweepScenarioIWith(context.Background(), apps, counts,
		SweepConfig{Workers: 1, NoFork: true})
	if err != nil {
		t.Fatal(err)
	}

	tiny := testRig(t)
	tiny.EnableForkBounded(64 << 10) // 64 KiB: a fraction of one column's logs
	outs, err := tiny.SweepScenarioIWith(context.Background(), apps, counts, SweepConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	outcomesEqual(t, coldOuts, outs)
	st := tiny.ForkStats()
	if st.SizeBytes > st.CapacityBytes {
		t.Fatalf("fork cache exceeded its budget: %+v", st)
	}
	if st.Evictions == 0 && st.Records > 1 {
		t.Fatalf("tiny budget retained %d checkpoints without evicting: %+v", st.Records, st)
	}
}

// TestCloneForScale pins the derived-rig contract: a rig cloned to a new
// scale measures exactly what a freshly constructed rig at that scale
// measures, and shares the base rig's caches and substrates.
func TestCloneForScale(t *testing.T) {
	base := testRig(t)
	base.EnableMemo()
	base.EnableFork()

	const scale = 0.08
	derived, err := base.CloneForScale(scale)
	if err != nil {
		t.Fatal(err)
	}
	if derived.Scale != scale {
		t.Fatalf("derived scale %g, want %g", derived.Scale, scale)
	}
	if derived.memo != base.memo || derived.fork != base.fork {
		t.Error("CloneForScale dropped a shared cache")
	}
	if derived.Meter != base.Meter || derived.TM != base.TM || derived.Table != base.Table {
		t.Error("CloneForScale copied an immutable substrate")
	}

	fresh, err := NewRig(scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		a, err := derived.RunApp(app(t, "FFT"), n, base.Table.Nominal())
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.RunApp(app(t, "FFT"), n, fresh.Table.Nominal())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("n=%d: derived rig measurement differs from fresh rig:\n  %+v\n  %+v", n, a, b)
		}
	}

	for _, bad := range []float64{0, -1, math.NaN()} {
		if _, err := base.CloneForScale(bad); err == nil {
			t.Errorf("CloneForScale accepted scale %g", bad)
		}
	}
}

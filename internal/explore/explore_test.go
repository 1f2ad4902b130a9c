package explore

import (
	"context"
	"reflect"
	"testing"

	"cmppower/internal/splash"
)

func apps(t *testing.T, names ...string) []splash.App {
	t.Helper()
	var out []splash.App
	for _, n := range names {
		a, err := splash.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// exact runs a fully simulated exploration of the baseline chip.
func exact(ctx context.Context, as []splash.App, opts []Option, scale float64, workers int) ([]Outcome, error) {
	cells, err := Explore(ctx, as, opts, nil, scale, workers, nil, nil, nil)
	return Outcomes(cells), err
}

func TestOptionValidate(t *testing.T) {
	for _, o := range StandardOptions() {
		if err := o.Validate(); err != nil {
			t.Errorf("standard option %s invalid: %v", o.Name, err)
		}
	}
	bad := []Option{
		{Name: "", Cores: 4, IssueWidth: 4, IPCBoost: 1, L2Bytes: 4 << 20},
		{Name: "x", Cores: 0, IssueWidth: 4, IPCBoost: 1, L2Bytes: 4 << 20},
		{Name: "x", Cores: 128, IssueWidth: 4, IPCBoost: 1, L2Bytes: 4 << 20},
		{Name: "x", Cores: 4, IssueWidth: 0, IPCBoost: 1, L2Bytes: 4 << 20},
		{Name: "x", Cores: 4, IssueWidth: 4, IPCBoost: 0, L2Bytes: 4 << 20},
		{Name: "x", Cores: 4, IssueWidth: 4, IPCBoost: 9, L2Bytes: 4 << 20},
		{Name: "x", Cores: 4, IssueWidth: 4, IPCBoost: 1, L2Bytes: 1024},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad option %d accepted", i)
		}
	}
}

func TestMaxThreads(t *testing.T) {
	lu := apps(t, "LU")[0]
	if got := maxThreads(lu, 12); got != 8 {
		t.Errorf("LU on a 12-core chip should use 8 threads, got %d", got)
	}
	barnes := apps(t, "Barnes")[0]
	if got := maxThreads(barnes, 12); got != 12 {
		t.Errorf("Barnes should use all 12, got %d", got)
	}
}

func TestExploreScalableAppPrefersManyCores(t *testing.T) {
	// A well-scaling app should run fastest on the many-core options.
	outs, err := exact(context.Background(), apps(t, "Barnes"),
		[]Option{
			{Name: "4x-wide", Cores: 4, IssueWidth: 8, IPCBoost: 1.5, L2Bytes: 4 << 20},
			{Name: "16x-ev6", Cores: 16, IssueWidth: 4, IPCBoost: 1.0, L2Bytes: 4 << 20},
		}, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("outcomes=%d", len(outs))
	}
	var wide, many Outcome
	for _, o := range outs {
		if o.Option.Name == "4x-wide" {
			wide = o
		} else {
			many = o
		}
	}
	if many.Seconds >= wide.Seconds {
		t.Errorf("16 EV6 cores (%g s) should beat 4 wide cores (%g s) on a scalable app",
			many.Seconds, wide.Seconds)
	}
	// Reference speedups are anchored at 16x-ev6.
	if many.Speedup != 1 {
		t.Errorf("reference speedup=%g, want 1", many.Speedup)
	}
	if wide.Speedup >= 1 {
		t.Errorf("wide option speedup=%g, want < 1", wide.Speedup)
	}
}

func TestExploreAllStandardOptions(t *testing.T) {
	outs, err := exact(context.Background(), apps(t, "FFT", "Radix"), StandardOptions(), 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 10 {
		t.Fatalf("outcomes=%d, want 10", len(outs))
	}
	for _, o := range outs {
		if o.Seconds <= 0 || o.PowerW <= 0 || o.EDP <= 0 {
			t.Errorf("degenerate outcome %+v", o)
		}
	}
	best := BestByEDP(outs)
	if len(best) != 2 {
		t.Fatalf("best map size %d", len(best))
	}
	for app, o := range best {
		if o.App != app {
			t.Errorf("best map inconsistent for %s", app)
		}
	}
}

func TestExploreValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := exact(ctx, nil, StandardOptions(), 0.1, 1); err == nil {
		t.Error("accepted empty apps")
	}
	if _, err := exact(ctx, apps(t, "FFT"), nil, 0.1, 1); err == nil {
		t.Error("accepted empty options")
	}
	if _, err := exact(ctx, apps(t, "FFT"), []Option{{}}, 0.1, 1); err == nil {
		t.Error("accepted invalid option")
	}
}

// TestExploreMatchesSerial: the pooled exploration must be bit-identical
// to the serial one for every worker count, including the post-pass
// speedup normalization that depends on the full result set.
func TestExploreMatchesSerial(t *testing.T) {
	as := apps(t, "FFT", "Radix")
	opts := StandardOptions()[:3]
	serial, err := exact(context.Background(), as, opts, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{2, 4, 8} {
		parallel, err := exact(context.Background(), as, opts, 0.1, j)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d outcomes diverged from serial:\n%+v\nvs\n%+v", j, serial, parallel)
		}
	}
}

// TestExploreCancellation: a dead context aborts the exploration.
func TestExploreCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := exact(ctx, apps(t, "FFT"), StandardOptions()[:2], 0.1, 2); err == nil {
		t.Fatal("cancelled exploration returned nil error")
	}
}

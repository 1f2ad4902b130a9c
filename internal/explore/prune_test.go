package explore

import (
	"reflect"
	"testing"

	"cmppower/internal/experiment"
	"cmppower/internal/obs"
	"cmppower/internal/surrogate"
)

// warmStore runs a serve-style grid so the apps' surrogates activate.
func warmStore(t *testing.T, scale float64, names ...string) (*surrogate.Store, func(string) surrogate.Key) {
	t.Helper()
	rig, err := experiment.NewRig(scale)
	if err != nil {
		t.Fatal(err)
	}
	rig.EnableMemo()
	store := surrogate.NewStore(surrogate.Options{})
	rig.Surrogate = store
	nom := rig.Table.Nominal()
	for _, a := range apps(t, names...) {
		for _, n := range []int{1, 2, 4, 8, 16} {
			if !a.RunsOn(n) || n > rig.TotalCores {
				continue
			}
			for _, fr := range []float64{1.0, 0.75, 0.55} {
				p := rig.Table.PointFor(nom.Freq * fr)
				for _, seed := range []uint64{1, 2} {
					if _, err := rig.RunAppSeeded(t.Context(), a, n, p, seed); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if store.FitFor(rig.SurrogateKey(a.Name)) == nil {
			t.Fatalf("fit refused for %s: %s", a.Name, store.Reason(rig.SurrogateKey(a.Name)))
		}
	}
	return store, rig.SurrogateKey
}

// TestPrunedExploreAgreesWithFull is the pruner's contract: simulated
// cells are bit-identical to a full exploration, the per-app EDP winner
// is found by simulation (never answered from the surrogate), the
// protected cells are always simulated, and pruning actually engages.
func TestPrunedExploreAgreesWithFull(t *testing.T) {
	const scale = 0.05
	names := []string{"FFT", "LU"}
	store, keyFor := warmStore(t, scale, names...)
	as := apps(t, names...)
	// The standard set is a competitive frontier (extrapolated EDP spread
	// under 2×), so a conservative pruner must simulate all of it; the
	// appended organizations are clearly dominated on scalable apps and
	// are what the pruner is for.
	opts := append(StandardOptions(),
		Option{Name: "1x-solo", Cores: 1, IssueWidth: 2, IPCBoost: 0.6, L2Bytes: 1 << 20},
		Option{Name: "2x-tiny", Cores: 2, IssueWidth: 2, IPCBoost: 0.6, L2Bytes: 1 << 20},
	)

	full, err := exact(t.Context(), as, opts, scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cells, err := Explore(t.Context(), as, opts, nil, scale, 2, reg, store, keyFor)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(full) {
		t.Fatalf("pruned explore returned %d cells, full %d", len(cells), len(full))
	}

	fullByCell := map[[2]string]Outcome{}
	for _, o := range full {
		fullByCell[[2]string{o.Option.Name, o.App}] = o
	}
	pruned := 0
	for _, c := range cells {
		key := [2]string{c.Option.Name, c.App}
		switch c.Source {
		case "simulation":
			if !reflect.DeepEqual(c.Outcome, fullByCell[key]) {
				t.Errorf("simulated cell %v differs from full explore:\n got %+v\nwant %+v", key, c.Outcome, fullByCell[key])
			}
		case "surrogate":
			pruned++
			if c.Margin <= PruneMargin {
				t.Errorf("cell %v pruned at margin %v ≤ %v", key, c.Margin, PruneMargin)
			}
			if c.Option.Name == "16x-ev6" {
				t.Errorf("reference cell %v was pruned", key)
			}
			if c.Option.Cores > 16 {
				t.Errorf("extrapolated-count cell %v was pruned", key)
			}
			if c.Option.Name != "1x-solo" && c.Option.Name != "2x-tiny" {
				t.Errorf("competitive-frontier cell %v was pruned", key)
			}
		default:
			t.Errorf("cell %v has unknown source %q", key, c.Source)
		}
	}
	if pruned == 0 {
		t.Error("no cell pruned: the surrogate guidance never engaged")
	}
	if got := reg.VolatileCounter("explore_cells_pruned_total").Value(); got != int64(pruned) {
		t.Errorf("pruned counter = %d, want %d", got, pruned)
	}

	// The winner must come from simulation and match the full run's.
	wantBest := BestByEDP(full)
	gotBest := BestByEDP(Outcomes(cells))
	for app, want := range wantBest {
		got := gotBest[app]
		if got.Option.Name != want.Option.Name {
			t.Errorf("%s: pruned explore picked %s, full explore %s", app, got.Option.Name, want.Option.Name)
		}
	}
	bySrc := map[[2]string]string{}
	for _, c := range cells {
		bySrc[[2]string{c.Option.Name, c.App}] = c.Source
	}
	for app, want := range wantBest {
		if src := bySrc[[2]string{want.Option.Name, app}]; src != "simulation" {
			t.Errorf("%s: winning cell %s served from %s", app, want.Option.Name, src)
		}
	}
}

// TestExploreSurrogateNilStoreFallsBack: no store means a plain full
// exploration with every cell labelled simulation.
func TestExploreSurrogateNilStoreFallsBack(t *testing.T) {
	as := apps(t, "FFT")
	opts := StandardOptions()[:2]
	reg := obs.NewRegistry()
	cells, err := Explore(t.Context(), as, opts, nil, 0.05, 1, reg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(opts) {
		t.Fatalf("got %d cells, want %d", len(cells), len(opts))
	}
	if got := reg.VolatileCounter("explore_cells_simulated_total").Value(); got != int64(len(cells)) {
		t.Errorf("simulated counter = %d, want %d", got, len(cells))
	}
	for _, c := range cells {
		if c.Source != "simulation" {
			t.Errorf("cell %s/%s source %q without a store", c.Option.Name, c.App, c.Source)
		}
	}
}

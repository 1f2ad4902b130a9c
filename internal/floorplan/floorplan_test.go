package floorplan

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestUnitStrings(t *testing.T) {
	for u := Unit(0); int(u) < NumUnits(); u++ {
		s := u.String()
		if s == "" || strings.HasPrefix(s, "unit(") {
			t.Errorf("unit %d has no name", u)
		}
	}
	if got := Unit(99).String(); !strings.HasPrefix(got, "unit(") {
		t.Errorf("out-of-range unit string = %q", got)
	}
}

func TestCoreUnitsCount(t *testing.T) {
	if got := len(CoreUnits()); got != 10 {
		t.Errorf("CoreUnits count = %d, want 10", got)
	}
}

func TestCoreTileCoversTile(t *testing.T) {
	blocks := CoreTile(0, 1e-3, 2e-3, 3e-3, 2e-3)
	var area float64
	for _, b := range blocks {
		area += b.Area()
		if b.Core != 0 {
			t.Errorf("block %s Core=%d, want 0", b.Name, b.Core)
		}
		if !strings.HasPrefix(b.Name, "core0.") {
			t.Errorf("block name %q lacks core prefix", b.Name)
		}
	}
	want := 3e-3 * 2e-3
	if math.Abs(area-want)/want > 1e-9 {
		t.Errorf("tile block area %g, want %g", area, want)
	}
	if len(blocks) != 10 {
		t.Errorf("tile has %d blocks, want 10", len(blocks))
	}
}

func TestCoreTileNoOverlap(t *testing.T) {
	blocks := CoreTile(0, 0, 0, 1e-3, 1e-3)
	for i := range blocks {
		for j := i + 1; j < len(blocks); j++ {
			a, b := blocks[i], blocks[j]
			ox := math.Min(a.X+a.W, b.X+b.W) - math.Max(a.X, b.X)
			oy := math.Min(a.Y+a.H, b.Y+b.H) - math.Max(a.Y, b.Y)
			if ox > 1e-12 && oy > 1e-12 {
				t.Errorf("blocks %s and %s overlap", a.Name, b.Name)
			}
		}
	}
}

func TestChipDefault16(t *testing.T) {
	fp, err := Chip(DefaultChipConfig(16))
	if err != nil {
		t.Fatalf("Chip: %v", err)
	}
	// 16 cores × 10 blocks + 1 bus + 4 L2 banks.
	if got := len(fp.Blocks); got != 165 {
		t.Errorf("block count = %d, want 165", got)
	}
	wantArea := 15.6e-3 * 15.6e-3
	if math.Abs(fp.Area()-wantArea)/wantArea > 1e-9 {
		t.Errorf("die area = %g, want %g (244.5 mm²)", fp.Area(), wantArea)
	}
	var blockArea float64
	for _, b := range fp.Blocks {
		blockArea += b.Area()
	}
	if math.Abs(blockArea-wantArea)/wantArea > 1e-9 {
		t.Errorf("blocks do not tile the die: %g vs %g", blockArea, wantArea)
	}
}

func TestChipCoreBlockQueries(t *testing.T) {
	fp, err := Chip(DefaultChipConfig(4))
	if err != nil {
		t.Fatalf("Chip: %v", err)
	}
	for c := 0; c < 4; c++ {
		if got := len(fp.CoreBlocks(c)); got != 10 {
			t.Errorf("core %d has %d blocks, want 10", c, got)
		}
	}
	if got := fp.Index("l2.bank0"); got < 0 {
		t.Error("l2.bank0 not found")
	}
	if got := fp.Index("bus"); got < 0 {
		t.Error("bus not found")
	}
	if got := fp.Index("nope"); got != -1 {
		t.Errorf("Index(nope)=%d, want -1", got)
	}
}

func TestChipRejectsBadConfig(t *testing.T) {
	for _, cfg := range []ChipConfig{
		{NCores: 0, DieW: 1e-3, DieH: 1e-3, L2Banks: 1},
		{NCores: MaxCores + 1, DieW: 1e-3, DieH: 1e-3, L2Banks: 1},
		{NCores: 6, DieW: 1e-3, DieH: 1e-3, L2Banks: 1, Layers: 4},
		{NCores: 16, DieW: 1e-3, DieH: 1e-3, L2Banks: 1, Layers: 9},
		{NCores: 4, DieW: 0, DieH: 1e-3, L2Banks: 1},
		{NCores: 4, DieW: 1e-3, DieH: -1, L2Banks: 1},
		{NCores: 4, DieW: 1e-3, DieH: 1e-3, L2Banks: 0},
	} {
		if _, err := Chip(cfg); err == nil {
			t.Errorf("Chip(%+v) accepted invalid config", cfg)
		}
	}
}

func TestChipVariousCoreCounts(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 16, 32} {
		fp, err := Chip(DefaultChipConfig(n))
		if err != nil {
			t.Fatalf("Chip(%d): %v", n, err)
		}
		cores := map[int]bool{}
		for _, b := range fp.Blocks {
			if b.Core >= 0 {
				cores[b.Core] = true
			}
			if b.Area() <= 0 {
				t.Errorf("n=%d: block %s has non-positive area", n, b.Name)
			}
		}
		if len(cores) != n {
			t.Errorf("n=%d: found %d distinct cores", n, len(cores))
		}
	}
}

func TestSharedEdge(t *testing.T) {
	a := Block{X: 0, Y: 0, W: 1, H: 1}
	right := Block{X: 1, Y: 0.5, W: 1, H: 1}
	above := Block{X: 0.25, Y: 1, W: 0.5, H: 1}
	corner := Block{X: 1, Y: 1, W: 1, H: 1}
	far := Block{X: 5, Y: 5, W: 1, H: 1}

	if got := SharedEdge(a, right); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("right edge = %g, want 0.5", got)
	}
	if got := SharedEdge(a, above); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("above edge = %g, want 0.5", got)
	}
	if got := SharedEdge(a, corner); got != 0 {
		t.Errorf("corner contact edge = %g, want 0", got)
	}
	if got := SharedEdge(a, far); got != 0 {
		t.Errorf("disjoint edge = %g, want 0", got)
	}
}

func TestSharedEdgeSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		norm := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(math.Abs(x), 3)
		}
		a := Block{X: norm(ax), Y: norm(ay), W: 1, H: 1}
		b := Block{X: norm(bx), Y: norm(by), W: 1, H: 1}
		return SharedEdge(a, b) == SharedEdge(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBuildAdjacencyChip(t *testing.T) {
	fp, err := Chip(DefaultChipConfig(16))
	if err != nil {
		t.Fatalf("Chip: %v", err)
	}
	adj := fp.BuildAdjacency()
	if len(adj.Neighbor) != len(fp.Blocks) {
		t.Fatalf("adjacency size mismatch")
	}
	// Every block on a fully tiled die has at least one neighbor.
	for i, ns := range adj.Neighbor {
		if len(ns) == 0 {
			t.Errorf("block %s has no neighbors", fp.Blocks[i].Name)
		}
		if len(ns) != len(adj.Edge[i]) {
			t.Errorf("block %d: neighbor/edge length mismatch", i)
		}
	}
	// Symmetry of the adjacency relation.
	for i, ns := range adj.Neighbor {
		for _, j := range ns {
			found := false
			for _, k := range adj.Neighbor[j] {
				if k == i {
					found = true
				}
			}
			if !found {
				t.Errorf("adjacency not symmetric: %d->%d", i, j)
			}
		}
	}
}

// buildAdjacencyRef is BuildAdjacency without the extent prefilter: the
// plain all-pairs scan it replaced, kept as the reference.
func buildAdjacencyRef(f *Floorplan) Adjacency {
	n := len(f.Blocks)
	adj := Adjacency{Neighbor: make([][]int, n), Edge: make([][]float64, n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if f.Blocks[i].Layer != f.Blocks[j].Layer {
				continue
			}
			e := SharedEdge(f.Blocks[i], f.Blocks[j])
			if e > 0 {
				adj.Neighbor[i] = append(adj.Neighbor[i], j)
				adj.Edge[i] = append(adj.Edge[i], e)
				adj.Neighbor[j] = append(adj.Neighbor[j], i)
				adj.Edge[j] = append(adj.Edge[j], e)
			}
		}
	}
	return adj
}

// TestBuildAdjacencyMatchesReference: the prefilter only skips pairs that
// share no edge, so every chip the scenarios can build, and random block
// sets with touching, overlapping and negative-size blocks, get the
// reference's neighbor lists in the same order with bit-identical edges.
func TestBuildAdjacencyMatchesReference(t *testing.T) {
	same := func(fp *Floorplan) bool {
		return reflect.DeepEqual(fp.BuildAdjacency(), buildAdjacencyRef(fp))
	}
	for _, n := range []int{1, 2, 3, 4, 8, 12, 16, 32, 64, 128, 256} {
		for _, layers := range []int{1, 2, 4} {
			if n%layers != 0 {
				continue
			}
			for _, banks := range []int{1, 4, 7} {
				cfg := DefaultChipConfig(n)
				cfg.Layers, cfg.L2Banks = layers, banks
				fp, err := Chip(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !same(fp) {
					t.Errorf("%d cores, %d layers, %d banks: adjacency differs from the reference", n, layers, banks)
				}
			}
		}
	}
	// Random blocks on a coarse grid, so edges coincide often.
	grid := func(v uint8) float64 { return float64(v%8) * 1e-3 }
	f := func(raw [][5]uint8) bool {
		fp := &Floorplan{}
		for _, r := range raw {
			w, h := grid(r[2])+1e-3, grid(r[3])+1e-3
			if r[4]&1 != 0 {
				w = -w
			}
			fp.Blocks = append(fp.Blocks, Block{X: grid(r[0]), Y: grid(r[1]), W: w, H: h, Layer: int(r[4] >> 7)})
		}
		return same(fp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

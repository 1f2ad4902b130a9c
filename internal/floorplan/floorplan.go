// Package floorplan describes chip geometry: rectangular blocks for the
// microarchitectural structures of each core, the shared L2, and the bus.
//
// The thermal model (internal/thermal) builds its lumped-RC network from
// this geometry, and the power model maps activity counters onto blocks by
// name. The default chip mirrors the paper's Table 1: a 15.6 mm × 15.6 mm
// die with Alpha-21264-class core tiles and a large shared L2 region whose
// power density is far below the cores (paper §3.3 excludes it from the
// power-density and temperature statistics for exactly that reason).
package floorplan

import (
	"fmt"
	"math"
)

// Unit identifies the microarchitectural structure a block implements.
// Power accounting keys activity to these units.
type Unit int

// Units of a core tile plus the shared chip structures.
const (
	UnitFetch Unit = iota
	UnitBpred
	UnitRename
	UnitWindow
	UnitRegfile
	UnitIALU
	UnitFALU
	UnitLSQ
	UnitIL1
	UnitDL1
	UnitL2
	UnitBus
	unitCount
)

var unitNames = [...]string{
	UnitFetch:   "fetch",
	UnitBpred:   "bpred",
	UnitRename:  "rename",
	UnitWindow:  "window",
	UnitRegfile: "regfile",
	UnitIALU:    "ialu",
	UnitFALU:    "falu",
	UnitLSQ:     "lsq",
	UnitIL1:     "il1",
	UnitDL1:     "dl1",
	UnitL2:      "l2",
	UnitBus:     "bus",
}

// String implements fmt.Stringer.
func (u Unit) String() string {
	if u < 0 || int(u) >= len(unitNames) {
		return fmt.Sprintf("unit(%d)", int(u))
	}
	return unitNames[u]
}

// CoreUnits lists the units instantiated once per core tile.
func CoreUnits() []Unit {
	return []Unit{UnitFetch, UnitBpred, UnitRename, UnitWindow, UnitRegfile,
		UnitIALU, UnitFALU, UnitLSQ, UnitIL1, UnitDL1}
}

// NumUnits returns the number of distinct unit kinds.
func NumUnits() int { return int(unitCount) }

// Block is one axis-aligned rectangle of silicon.
type Block struct {
	Name string  // unique, e.g. "core3.ialu" or "l2.bank1"
	Unit Unit    // structure kind
	Core int     // owning core index, or -1 for shared structures
	X, Y float64 // lower-left corner, meters
	W, H float64 // width and height, meters
	// Layer is the stacking level for 3D chips: 0 is the sink-adjacent
	// die (the only one with a vertical path to the heat sink), higher
	// layers are buried. Planar chips leave every block at 0.
	Layer int
}

// Area returns the block area in m².
func (b Block) Area() float64 { return b.W * b.H }

// OverlapArea returns the XY-projected overlap of two blocks in m²,
// ignoring their layers — the face area through which vertically stacked
// blocks exchange heat.
func OverlapArea(a, b Block) float64 {
	w := math.Min(a.X+a.W, b.X+b.W) - math.Max(a.X, b.X)
	h := math.Min(a.Y+a.H, b.Y+b.H) - math.Max(a.Y, b.Y)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Floorplan is a set of non-overlapping blocks covering (part of) a die.
type Floorplan struct {
	Blocks []Block
	// DieW, DieH are the full die dimensions in meters.
	DieW, DieH float64
}

// Area returns the total die area in m².
func (f *Floorplan) Area() float64 { return f.DieW * f.DieH }

// Index returns the position of the named block, or -1.
func (f *Floorplan) Index(name string) int {
	for i, b := range f.Blocks {
		if b.Name == name {
			return i
		}
	}
	return -1
}

// CoreBlocks returns the indices of the blocks belonging to core c.
func (f *Floorplan) CoreBlocks(c int) []int {
	var out []int
	for i, b := range f.Blocks {
		if b.Core == c {
			out = append(out, i)
		}
	}
	return out
}

// edgeEps is SharedEdge's tolerance, in meters, for two block edges to
// count as one line.
const edgeEps = 1e-9

// SharedEdge returns the length (m) of the boundary shared by blocks a and
// b, or 0 if they do not abut. Blocks that merely touch at a corner share
// no edge.
func SharedEdge(a, b Block) float64 {
	const eps = edgeEps
	// Vertical adjacency: a's right edge on b's left edge or vice versa.
	if math.Abs((a.X+a.W)-b.X) < eps || math.Abs((b.X+b.W)-a.X) < eps {
		lo := math.Max(a.Y, b.Y)
		hi := math.Min(a.Y+a.H, b.Y+b.H)
		if hi-lo > eps {
			return hi - lo
		}
	}
	// Horizontal adjacency.
	if math.Abs((a.Y+a.H)-b.Y) < eps || math.Abs((b.Y+b.H)-a.Y) < eps {
		lo := math.Max(a.X, b.X)
		hi := math.Min(a.X+a.W, b.X+b.W)
		if hi-lo > eps {
			return hi - lo
		}
	}
	return 0
}

// Adjacency lists, for every block index, its neighbors and shared-edge
// lengths.
type Adjacency struct {
	Neighbor [][]int
	Edge     [][]float64
}

// BuildAdjacency computes the block adjacency of the floorplan. Lateral
// adjacency exists only within one stacking layer; vertical coupling
// between layers is the thermal model's business (face overlap, not edge
// abutment).
//
// Pairs are visited in index order and SharedEdge decides each one, so
// every neighbor list comes out in one fixed order. Most pairs lie far
// apart, so a pair is first tested on flat arrays of each block's layer
// and extents: when the extents lie more than twice SharedEdge's
// tolerance apart along either axis, the two blocks cannot share an
// edge, and SharedEdge would return 0.
func (f *Floorplan) BuildAdjacency() Adjacency {
	n := len(f.Blocks)
	adj := Adjacency{Neighbor: make([][]int, n), Edge: make([][]float64, n)}
	layer := make([]int, n)
	x0, x1 := make([]float64, n), make([]float64, n)
	y0, y1 := make([]float64, n), make([]float64, n)
	for i, b := range f.Blocks {
		layer[i] = b.Layer
		// Extents hold whatever the signs of W and H.
		x0[i], x1[i] = math.Min(b.X, b.X+b.W), math.Max(b.X, b.X+b.W)
		y0[i], y1[i] = math.Min(b.Y, b.Y+b.H), math.Max(b.Y, b.Y+b.H)
	}
	const gap = 2 * edgeEps
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if layer[i] != layer[j] ||
				x0[j] > x1[i]+gap || x0[i] > x1[j]+gap ||
				y0[j] > y1[i]+gap || y0[i] > y1[j]+gap {
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

// coreLayout describes the relative placement of the units inside a core
// tile: three rows of blocks, each entry a (unit, width-fraction) pair.
type relBlock struct {
	unit Unit
	wfr  float64
}

var coreRows = []struct {
	hfr  float64
	cols []relBlock
}{
	// Front end: instruction cache, fetch logic, branch predictor.
	{0.30, []relBlock{{UnitIL1, 0.50}, {UnitFetch, 0.25}, {UnitBpred, 0.25}}},
	// Execution core.
	{0.40, []relBlock{{UnitWindow, 0.25}, {UnitIALU, 0.25}, {UnitFALU, 0.25},
		{UnitRegfile, 0.125}, {UnitRename, 0.125}}},
	// Memory back end.
	{0.30, []relBlock{{UnitDL1, 0.60}, {UnitLSQ, 0.40}}},
}

// CoreTile lays out one EV6-like core in the rectangle (x, y, w, h) and
// returns its blocks, named "core<idx>.<unit>".
func CoreTile(idx int, x, y, w, h float64) []Block {
	var blocks []Block
	cy := y
	for _, row := range coreRows {
		rh := row.hfr * h
		cx := x
		for _, rb := range row.cols {
			bw := rb.wfr * w
			blocks = append(blocks, Block{
				Name: fmt.Sprintf("core%d.%s", idx, rb.unit),
				Unit: rb.unit,
				Core: idx,
				X:    cx, Y: cy, W: bw, H: rh,
			})
			cx += bw
		}
		cy += rh
	}
	return blocks
}

// ChipConfig controls chip assembly.
type ChipConfig struct {
	NCores  int
	DieW    float64 // meters; default 15.6 mm
	DieH    float64 // meters; default 15.6 mm
	L2Banks int     // default 4
	// Layers stacks the chip in 3D: 0 or 1 is the planar Table 1 chip;
	// L > 1 splits the cores evenly across L dies, with layer 0 (the
	// sink-adjacent die) keeping the bus and L2 and each buried layer
	// carrying a full-die grid of core tiles. NCores must divide evenly.
	Layers int
}

// DefaultChipConfig returns the paper's Table 1 geometry for n cores.
func DefaultChipConfig(n int) ChipConfig {
	return ChipConfig{NCores: n, DieW: 15.6e-3, DieH: 15.6e-3, L2Banks: 4}
}

// MaxCores bounds chip assembly; raised beyond the paper's 16-way chip so
// many-core stress scenarios (Ginosar's √m regime) fit.
const MaxCores = 256

// Chip assembles a CMP floorplan: a grid of core tiles in the upper region,
// a bus strip, and L2 banks across the bottom; with cfg.Layers > 1, the
// same chip folded into a 3D stack. Valid for 1..MaxCores cores.
func Chip(cfg ChipConfig) (*Floorplan, error) {
	if cfg.NCores < 1 || cfg.NCores > MaxCores {
		return nil, fmt.Errorf("floorplan: NCores %d outside [1,%d]", cfg.NCores, MaxCores)
	}
	if cfg.DieW <= 0 || cfg.DieH <= 0 {
		return nil, fmt.Errorf("floorplan: non-positive die dimensions %g×%g", cfg.DieW, cfg.DieH)
	}
	if cfg.L2Banks < 1 {
		return nil, fmt.Errorf("floorplan: L2Banks must be >= 1, got %d", cfg.L2Banks)
	}
	if cfg.Layers > 1 {
		return chipStacked(cfg)
	}
	cols := int(math.Ceil(math.Sqrt(float64(cfg.NCores))))
	rows := (cfg.NCores + cols - 1) / cols

	// Region split: cores on top ~60%, bus strip ~4%, L2 bottom ~36%.
	coreRegionH := 0.60 * cfg.DieH
	busH := 0.04 * cfg.DieH
	l2H := cfg.DieH - coreRegionH - busH

	tileW := cfg.DieW / float64(cols)
	tileH := coreRegionH / float64(rows)

	fp := &Floorplan{DieW: cfg.DieW, DieH: cfg.DieH}
	idx := 0
	for r := 0; r < rows && idx < cfg.NCores; r++ {
		for c := 0; c < cols && idx < cfg.NCores; c++ {
			x := float64(c) * tileW
			y := busH + l2H + float64(r)*tileH
			fp.Blocks = append(fp.Blocks, CoreTile(idx, x, y, tileW, tileH)...)
			idx++
		}
	}
	// Bus strip spans the die between cores and L2.
	fp.Blocks = append(fp.Blocks, Block{
		Name: "bus", Unit: UnitBus, Core: -1,
		X: 0, Y: l2H, W: cfg.DieW, H: busH,
	})
	// L2 banks across the bottom.
	bankW := cfg.DieW / float64(cfg.L2Banks)
	for b := 0; b < cfg.L2Banks; b++ {
		fp.Blocks = append(fp.Blocks, Block{
			Name: fmt.Sprintf("l2.bank%d", b), Unit: UnitL2, Core: -1,
			X: float64(b) * bankW, Y: 0, W: bankW, H: l2H,
		})
	}
	return fp, nil
}

// chipStacked assembles the 3D variant: cfg.NCores split evenly across
// cfg.Layers dies. Layer 0 is the planar chip with its share of the cores
// (plus bus and L2); each buried layer is a full-die grid of core tiles.
// Core indices run contiguously layer by layer, so core c lives on layer
// c / (NCores/Layers).
func chipStacked(cfg ChipConfig) (*Floorplan, error) {
	if cfg.Layers > 8 {
		return nil, fmt.Errorf("floorplan: Layers %d outside [1,8]", cfg.Layers)
	}
	if cfg.NCores%cfg.Layers != 0 {
		return nil, fmt.Errorf("floorplan: NCores %d not divisible by Layers %d", cfg.NCores, cfg.Layers)
	}
	perLayer := cfg.NCores / cfg.Layers
	base := cfg
	base.NCores = perLayer
	base.Layers = 0
	fp, err := Chip(base)
	if err != nil {
		return nil, err
	}
	for l := 1; l < cfg.Layers; l++ {
		cols := int(math.Ceil(math.Sqrt(float64(perLayer))))
		rows := (perLayer + cols - 1) / cols
		tileW := cfg.DieW / float64(cols)
		tileH := cfg.DieH / float64(rows)
		idx := 0
		for r := 0; r < rows && idx < perLayer; r++ {
			for c := 0; c < cols && idx < perLayer; c++ {
				tile := CoreTile(l*perLayer+idx, float64(c)*tileW, float64(r)*tileH, tileW, tileH)
				for i := range tile {
					tile[i].Layer = l
				}
				fp.Blocks = append(fp.Blocks, tile...)
				idx++
			}
		}
	}
	return fp, nil
}

// Layers returns the number of stacking levels in the floorplan (1 for a
// planar chip).
func (f *Floorplan) Layers() int {
	max := 0
	for _, b := range f.Blocks {
		if b.Layer > max {
			max = b.Layer
		}
	}
	return max + 1
}

package cpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"cmppower/internal/check"
	"cmppower/internal/floorplan"
	"cmppower/internal/workload"
)

// fixedMem is a MemSystem returning a constant latency.
type fixedMem struct {
	latency float64
	calls   int
	lastW   bool
}

func (m *fixedMem) Access(core int, addr uint64, write bool, now float64) float64 {
	m.calls++
	m.lastW = write
	return now + m.latency
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	muts := []func(*Config){
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.IPCNonMem = 0 },
		func(c *Config) { c.IPCNonMem = 99 },
		func(c *Config) { c.BranchMissRate = -0.1 },
		func(c *Config) { c.BranchMissRate = 1.1 },
		func(c *Config) { c.BranchPenaltyCycles = -1 },
		func(c *Config) { c.IL1MissRate = 2 },
		func(c *Config) { c.IL1MissCycles = -1 },
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.LoadMissOverlap = 1 },
		func(c *Config) { c.StoreMissOverlap = -0.1 },
		func(c *Config) { c.L1HitCycles = 0 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Every float field rejects NaN and +Inf with a typed error naming
	// it; a range test in the v < lo || v > hi form passes NaN.
	floats := map[string]func(*Config, float64){
		"IPCNonMem":           func(c *Config, v float64) { c.IPCNonMem = v },
		"BranchMissRate":      func(c *Config, v float64) { c.BranchMissRate = v },
		"BranchPenaltyCycles": func(c *Config, v float64) { c.BranchPenaltyCycles = v },
		"IL1MissRate":         func(c *Config, v float64) { c.IL1MissRate = v },
		"IL1MissCycles":       func(c *Config, v float64) { c.IL1MissCycles = v },
		"LoadMissOverlap":     func(c *Config, v float64) { c.LoadMissOverlap = v },
		"StoreMissOverlap":    func(c *Config, v float64) { c.StoreMissOverlap = v },
		"L1HitCycles":         func(c *Config, v float64) { c.L1HitCycles = v },
		"SpeedRatio":          func(c *Config, v float64) { c.SpeedRatio = v },
	}
	for field, set := range floats {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig()
			set(&cfg, v)
			var ce *check.Error
			if err := cfg.Validate(); !errors.As(err, &ce) || ce.Field != field {
				t.Errorf("%s = %g: got %v, want a *check.Error on %s", field, v, err, field)
			}
		}
	}
	if _, err := New(-1, DefaultConfig()); err == nil {
		t.Error("accepted negative core id")
	}
	if _, err := New(0, Config{}); err == nil {
		t.Error("accepted zero config")
	}
}

func newCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	c, err := New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExecComputeTiming(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IPCNonMem = 2
	cfg.IL1MissRate = 0 // isolate
	cfg.BranchMissRate = 0
	c := newCore(t, cfg)
	c.ExecCompute(workload.Event{Kind: workload.EvCompute, N: 100, FP: 30, Branches: 10})
	if got := c.Clock(); math.Abs(got-50) > 1e-9 {
		t.Errorf("clock=%g, want 50 (100 instr at IPC 2)", got)
	}
	st := c.Stats()
	if st.Instructions != 100 {
		t.Errorf("instructions=%d", st.Instructions)
	}
	if got := c.Activity(floorplan.UnitFALU); got != 30 {
		t.Errorf("FALU activity=%d", got)
	}
	if got := c.Activity(floorplan.UnitIALU); got != 70 {
		t.Errorf("IALU activity=%d", got)
	}
	if got := c.Activity(floorplan.UnitBpred); got != 10 {
		t.Errorf("Bpred activity=%d", got)
	}
	if got := c.Activity(floorplan.UnitIL1); got != 25 {
		t.Errorf("IL1 accesses=%d, want 100/4", got)
	}
}

func TestBranchPenalty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IPCNonMem = 1
	cfg.IL1MissRate = 0
	cfg.BranchMissRate = 0.5
	cfg.BranchPenaltyCycles = 10
	c := newCore(t, cfg)
	c.ExecCompute(workload.Event{Kind: workload.EvCompute, N: 10, Branches: 4})
	// 10 cycles compute + 4*0.5*10 = 20 penalty.
	if got := c.Clock(); math.Abs(got-30) > 1e-9 {
		t.Errorf("clock=%g, want 30", got)
	}
	if got := c.Stats().BranchCycles; math.Abs(got-20) > 1e-9 {
		t.Errorf("BranchCycles=%g", got)
	}
}

func TestIL1MissCost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IPCNonMem = 4
	cfg.BranchMissRate = 0
	cfg.IL1MissRate = 0.01
	cfg.IL1MissCycles = 12
	c := newCore(t, cfg)
	c.ExecCompute(workload.Event{Kind: workload.EvCompute, N: 1000})
	// 250 compute + 1000*0.01*12 = 120 fetch stall.
	if got := c.Clock(); math.Abs(got-370) > 1e-9 {
		t.Errorf("clock=%g, want 370", got)
	}
	if got := c.Stats().IL1Misses; math.Abs(got-10) > 1e-9 {
		t.Errorf("IL1Misses=%g", got)
	}
}

func TestExecComputeIgnoresJunk(t *testing.T) {
	c := newCore(t, DefaultConfig())
	c.ExecCompute(workload.Event{Kind: workload.EvLoad})
	c.ExecCompute(workload.Event{Kind: workload.EvCompute, N: 0})
	if c.Clock() != 0 || c.Stats().Instructions != 0 {
		t.Error("junk events changed state")
	}
}

func TestExecMemHitCost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IL1MissRate = 0
	c := newCore(t, cfg)
	ms := &fixedMem{latency: 2} // L1 hit
	c.ExecMem(workload.Event{Kind: workload.EvLoad, Addr: 64}, ms)
	if got := c.Clock(); math.Abs(got-2) > 1e-9 {
		t.Errorf("hit cost=%g, want 2", got)
	}
	if ms.calls != 1 {
		t.Errorf("memory calls=%d", ms.calls)
	}
	if c.Stats().Loads != 1 {
		t.Errorf("loads=%d", c.Stats().Loads)
	}
}

func TestExecMemOverlap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IL1MissRate = 0
	cfg.LoadMissOverlap = 0.5
	cfg.StoreMissOverlap = 0.9
	c := newCore(t, cfg)
	ms := &fixedMem{latency: 102} // 2 + 100 beyond L1
	c.ExecMem(workload.Event{Kind: workload.EvLoad, Addr: 0}, ms)
	// 2 + 100*0.5 = 52.
	if got := c.Clock(); math.Abs(got-52) > 1e-9 {
		t.Errorf("load charge=%g, want 52", got)
	}
	before := c.Clock()
	c.ExecMem(workload.Event{Kind: workload.EvStore, Addr: 0}, ms)
	// 2 + 100*0.1 = 12.
	if got := c.Clock() - before; math.Abs(got-12) > 1e-9 {
		t.Errorf("store charge=%g, want 12", got)
	}
	if !ms.lastW {
		t.Error("store not passed as write")
	}
	if c.Stats().Stores != 1 {
		t.Errorf("stores=%d", c.Stats().Stores)
	}
}

func TestExecMemIgnoresNonMem(t *testing.T) {
	c := newCore(t, DefaultConfig())
	ms := &fixedMem{latency: 2}
	c.ExecMem(workload.Event{Kind: workload.EvBarrier}, ms)
	if ms.calls != 0 || c.Clock() != 0 {
		t.Error("non-memory event reached the hierarchy")
	}
}

func TestExecSyncAndIdle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IL1MissRate = 0
	c := newCore(t, cfg)
	c.ExecSync(10)
	if got := c.Clock(); math.Abs(got-10) > 1e-9 {
		t.Errorf("sync cost=%g", got)
	}
	if c.Stats().SyncEvents != 1 || c.Stats().Instructions != 1 {
		t.Error("sync not counted")
	}
	c.AdvanceTo(100)
	if got := c.Stats().IdleCycles; math.Abs(got-90) > 1e-9 {
		t.Errorf("idle=%g, want 90", got)
	}
	// AdvanceTo backwards is a no-op.
	c.AdvanceTo(50)
	if c.Clock() != 100 {
		t.Error("clock moved backwards")
	}
}

func TestStatsFinishClock(t *testing.T) {
	c := newCore(t, DefaultConfig())
	c.ExecSync(5)
	if got := c.Stats().FinishClock; got != c.Clock() {
		t.Errorf("FinishClock=%g, clock=%g", got, c.Clock())
	}
}

func TestSlowMemoryDominatesCPIWhenMemoryBound(t *testing.T) {
	// Sanity link to the paper: with 240-cycle memory and no overlap
	// tuning, a memory-heavy stream's CPI should be dominated by MemCycles.
	cfg := DefaultConfig()
	cfg.IL1MissRate = 0
	c := newCore(t, cfg)
	ms := &fixedMem{latency: 242}
	for i := 0; i < 100; i++ {
		c.ExecCompute(workload.Event{Kind: workload.EvCompute, N: 4})
		c.ExecMem(workload.Event{Kind: workload.EvLoad, Addr: uint64(i * 64)}, ms)
	}
	st := c.Stats()
	if st.MemCycles < st.ComputeCycles*10 {
		t.Errorf("memory-bound stream: mem %g vs compute %g", st.MemCycles, st.ComputeCycles)
	}
	cpi := c.Clock() / float64(st.Instructions)
	if cpi < 5 {
		t.Errorf("CPI=%g, expected memory-bound CPI >> 1", cpi)
	}
}

// Property: compute-burst timing is exactly N/IPC + branch penalty, and
// front-end activity equals the instruction count, for arbitrary bursts.
func TestQuickComputeAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IL1MissRate = 0
	f := func(nRaw, brRaw uint16) bool {
		n := 1 + int(nRaw)%10000
		branches := int(brRaw) % (n + 1)
		c, err := New(0, cfg)
		if err != nil {
			return false
		}
		c.ExecCompute(workload.Event{Kind: workload.EvCompute, N: int32(n), Branches: int32(branches)})
		want := float64(n)/cfg.IPCNonMem +
			float64(branches)*cfg.BranchMissRate*cfg.BranchPenaltyCycles
		if math.Abs(c.Clock()-want) > 1e-6*want+1e-9 {
			return false
		}
		return c.Activity(floorplan.UnitFetch) == int64(n) &&
			c.Activity(floorplan.UnitRename) == int64(n) &&
			c.Stats().Instructions == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: memory charge is bounded below by the L1 hit time and above by
// the raw hierarchy latency.
func TestQuickMemChargeBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IL1MissRate = 0
	f := func(latRaw uint16, write bool) bool {
		lat := 2 + float64(latRaw%1000)
		c, err := New(0, cfg)
		if err != nil {
			return false
		}
		ms := &fixedMem{latency: lat}
		ev := workload.Event{Kind: workload.EvLoad, Addr: 64}
		if write {
			ev.Kind = workload.EvStore
		}
		c.ExecMem(ev, ms)
		charged := c.Clock()
		return charged >= cfg.L1HitCycles-1e-9 && charged <= lat+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpeedRatioDilatesLocalWork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IL1MissRate = 0
	cfg.BranchMissRate = 0
	slow := cfg
	slow.SpeedRatio = 0.5
	full := newCore(t, cfg)
	half := newCore(t, slow)
	ev := workload.Event{Kind: workload.EvCompute, N: 100, FP: 0, Branches: 0}
	full.ExecCompute(ev)
	half.ExecCompute(ev)
	if got, want := half.Clock(), 2*full.Clock(); math.Abs(got-want) > 1e-9 {
		t.Errorf("half-speed compute clock=%g, want %g", got, want)
	}

	// Memory: only the L1-hit slice dilates; the beyond-L1 remainder is
	// uncore latency in reference cycles.
	ms := &fixedMem{latency: 100}
	fullM := newCore(t, cfg)
	halfM := newCore(t, slow)
	fullM.ExecLoadStore(0, false, ms)
	halfM.ExecLoadStore(0, false, ms)
	beyond := (100 - cfg.L1HitCycles) * (1 - cfg.LoadMissOverlap)
	wantFull := cfg.L1HitCycles + beyond
	wantHalf := 2*cfg.L1HitCycles + beyond
	if got := fullM.Clock(); math.Abs(got-wantFull) > 1e-9 {
		t.Errorf("full-speed mem clock=%g, want %g", got, wantFull)
	}
	if got := halfM.Clock(); math.Abs(got-wantHalf) > 1e-9 {
		t.Errorf("half-speed mem clock=%g, want %g", got, wantHalf)
	}
}

func TestSpeedRatioOneIsBitIdentical(t *testing.T) {
	// Ratio 1 (and the 0 default) must leave every charge bit-identical
	// to the pre-dilation model: baseline chips may not drift.
	cfg := DefaultConfig()
	one := cfg
	one.SpeedRatio = 1
	a := newCore(t, cfg)
	b := newCore(t, one)
	ms1, ms2 := &fixedMem{latency: 37.5}, &fixedMem{latency: 37.5}
	for i := 0; i < 50; i++ {
		a.ExecComputeBurst(7+i%13, i%3, i%5)
		b.ExecComputeBurst(7+i%13, i%3, i%5)
		a.ExecLoadStore(uint64(i*64), i%2 == 0, ms1)
		b.ExecLoadStore(uint64(i*64), i%2 == 0, ms2)
		a.ExecSync(12)
		b.ExecSync(12)
	}
	if a.Clock() != b.Clock() {
		t.Errorf("ratio-1 clock differs: %v vs %v", a.Clock(), b.Clock())
	}
	if a.Stats() != b.Stats() {
		t.Errorf("ratio-1 stats differ:\n%+v\n%+v", a.Stats(), b.Stats())
	}
}

func TestSpeedRatioValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpeedRatio = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("accepted speed ratio above 1")
	}
	cfg.SpeedRatio = -0.5
	if err := cfg.Validate(); err == nil {
		t.Error("accepted negative speed ratio")
	}
}

// statsBits flattens Stats to raw bits, so a comparison tells -0 from +0
// and catches a last-place float difference.
func statsBits(s Stats) []uint64 {
	v := reflect.ValueOf(s)
	out := make([]uint64, v.NumField())
	for i := range out {
		if f := v.Field(i); f.Kind() == reflect.Float64 {
			out[i] = math.Float64bits(f.Float())
		} else {
			out[i] = uint64(f.Int())
		}
	}
	return out
}

// TestAdvanceThenChargeMatchesExecComputeBurst pins the split a sampled
// engine run relies on: AdvanceCompute moves the clock bit for bit as
// ExecComputeBurst does, and charging the same bursts later, in order,
// before the core's next memory or sync event, leaves every counter bit
// for bit where ExecComputeBurst leaves it. Bursts are random, long ones
// (n >= 64, past the cycle table) included, on full- and part-speed cores
// with a non-power-of-two fetch width.
func TestAdvanceThenChargeMatchesExecComputeBurst(t *testing.T) {
	base := DefaultConfig()
	base.IPCNonMem = 2.3
	base.IL1MissRate = 0.0017
	slow := base
	slow.SpeedRatio = 0.55
	odd := slow
	odd.FetchWidth = 3
	for _, cfg := range []Config{base, slow, odd} {
		ref, split := newCore(t, cfg), newCore(t, cfg)
		refMem, splitMem := &fixedMem{latency: 41.25}, &fixedMem{latency: 41.25}
		rng := workload.NewRNG(uint64(cfg.FetchWidth)*7 + uint64(cfg.SpeedRatio*100))
		var pending [][3]int
		chargePending := func() {
			for _, b := range pending {
				split.ChargeCompute(b[0], b[1], b[2])
			}
			pending = pending[:0]
		}
		for step := 0; step < 4000; step++ {
			switch rng.Intn(6) {
			case 0:
				chargePending()
				ref.ExecLoadStore(uint64(step*64), step%3 == 0, refMem)
				split.ExecLoadStore(uint64(step*64), step%3 == 0, splitMem)
			case 1:
				chargePending()
				ref.ExecSync(12)
				split.ExecSync(12)
			default:
				n := rng.Intn(300)
				if rng.Intn(4) == 0 {
					n = rng.Intn(64)
				}
				fp, br := rng.Intn(n+1), rng.Intn(n/4+1)
				ref.ExecComputeBurst(n, fp, br)
				split.AdvanceCompute(n, br)
				pending = append(pending, [3]int{n, fp, br})
			}
			if math.Float64bits(ref.Clock()) != math.Float64bits(split.Clock()) {
				t.Fatalf("speed %g step %d: clock %v, split %v", cfg.SpeedRatio, step, ref.Clock(), split.Clock())
			}
		}
		chargePending()
		if !reflect.DeepEqual(statsBits(ref.Stats()), statsBits(split.Stats())) {
			t.Errorf("speed %g: stats differ:\n%+v\n%+v", cfg.SpeedRatio, ref.Stats(), split.Stats())
		}
		if ref.activity != split.activity {
			t.Errorf("speed %g: activity differs:\n%v\n%v", cfg.SpeedRatio, ref.activity, split.activity)
		}
	}
}

// seededMem is a MemSystem whose completion times are drawn from a seeded
// generator: some below the L1 hit time (clamped by the core), most a
// plausible hierarchy latency.
type seededMem struct{ rng *workload.RNG }

func (m *seededMem) Access(core int, addr uint64, write bool, now float64) float64 {
	return now + float64(m.rng.Intn(400))*0.375
}

// pinnedActivity holds TestCoreActivityPinned's digest per configuration.
// Any change to a counter, the clock or a unit's activity moves one.
var pinnedActivity = map[string]uint64{
	"speed=1/fetch=3":    0x561af1a3238fdeb5,
	"speed=1/fetch=4":    0x728452d8ffbfd5e2,
	"speed=0.55/fetch=3": 0xc011b3ffe4e49a2,
	"speed=0.55/fetch=4": 0x14fd82d37d06b74e,
}

// TestCoreActivityPinned runs seeded mixes of every way the engine
// charges a core — ExecComputeBurst, ExecLoadStore, ExecSync, and
// AdvanceCompute followed by ChargeCompute — and folds every unit's
// Activity and every Stats field into one FNV-1a digest per
// configuration, pinned absolutely. Full- and part-speed cores and
// power-of-two and odd fetch widths are covered.
func TestCoreActivityPinned(t *testing.T) {
	for _, speed := range []float64{1, 0.55} {
		for _, fetch := range []int{3, 4} {
			name := fmt.Sprintf("speed=%g/fetch=%d", speed, fetch)
			cfg := DefaultConfig()
			cfg.IPCNonMem = 2.3
			cfg.IL1MissRate = 0.0017
			cfg.SpeedRatio = speed
			cfg.FetchWidth = fetch
			c := newCore(t, cfg)
			rng := workload.NewRNG(uint64(fetch)*131 + uint64(speed*1000))
			mem := &seededMem{rng: workload.NewRNG(rng.Uint64())}
			for step := 0; step < 20000; step++ {
				n := rng.Intn(120)
				if rng.Intn(5) == 0 {
					n = rng.Intn(8)
				}
				fp, br := rng.Intn(n+1), rng.Intn(n/3+1)
				switch rng.Intn(7) {
				case 0, 1, 2:
					c.ExecLoadStore(rng.Uint64()&^7, rng.Intn(3) == 0, mem)
				case 3:
					c.ExecSync(float64(rng.Intn(40)) * 0.5)
				case 4:
					c.AdvanceCompute(n, br)
					c.ChargeCompute(n, fp, br)
				default:
					c.ExecComputeBurst(n, fp, br)
				}
			}
			h := fnv.New64a()
			var b [8]byte
			for u := floorplan.Unit(0); u <= floorplan.UnitBus; u++ {
				binary.LittleEndian.PutUint64(b[:], uint64(c.Activity(u)))
				h.Write(b[:])
			}
			for _, v := range statsBits(c.Stats()) {
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
			got := h.Sum64()
			if want, ok := pinnedActivity[name]; !ok || got != want {
				t.Errorf("%q: %#x, pinned %#x", name, got, want)
			}
		}
	}
}

package cmppower_test

import (
	"testing"

	"cmppower"
)

func TestFacadeTechnologies(t *testing.T) {
	t130, t65 := cmppower.Tech130(), cmppower.Tech65()
	if t130.FeatureNm != 130 || t65.FeatureNm != 65 {
		t.Fatal("technology constructors wrong")
	}
	if err := t130.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := t65.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAnalyticModel(t *testing.T) {
	m, err := cmppower.NewAnalyticModel(cmppower.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	best, err := m.PeakSpeedup(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Speedup <= 1 || best.N < 2 {
		t.Errorf("peak %+v implausible", best)
	}
	grid, err := cmppower.EpsGrid(0.1, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fig1Curve(8, grid); err != nil {
		t.Fatal(err)
	}
	custom, err := cmppower.NewAnalyticModelWithConfig(cmppower.AnalyticConfig{
		Tech: cmppower.Tech130(), MaxCores: 8, T1: 95,
	})
	if err != nil {
		t.Fatal(err)
	}
	if custom.MaxCores() != 8 {
		t.Error("custom chip size ignored")
	}
}

func TestFacadeApps(t *testing.T) {
	if got := len(cmppower.Apps()); got != 12 {
		t.Fatalf("apps=%d", got)
	}
	if got := len(cmppower.AppNames()); got != 12 {
		t.Fatalf("names=%d", got)
	}
	if _, err := cmppower.AppByName("Ocean"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDVFS(t *testing.T) {
	tab, err := cmppower.NewDVFSTable(cmppower.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Nominal().Freq != 3.2e9 {
		t.Errorf("nominal %v", tab.Nominal())
	}
}

func TestFacadeSimulate(t *testing.T) {
	tab, err := cmppower.NewDVFSTable(cmppower.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	prog := &cmppower.Program{
		Name: "facade-demo",
		Steps: []cmppower.Step{
			cmppower.Serial{Body: []cmppower.Step{cmppower.Compute{N: 1000, FPFrac: 0.3}}},
			cmppower.Barrier{ID: 0},
			cmppower.Kernel{
				Accesses: 2000, ComputePerMem: 10, HotFrac: 0.8,
				Region: cmppower.Region{Base: 0x1000, Size: 1 << 20, Scope: cmppower.Partition},
				Divide: true,
			},
			cmppower.Barrier{ID: 1},
		},
	}
	res, err := cmppower.Simulate(prog, cmppower.DefaultSimConfig(4, tab.Nominal()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions <= 0 || res.Seconds <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	// A hot window too small to hold one 8-byte word is refused before
	// the run starts, not discovered by a panic mid-run.
	prog.Steps[2] = cmppower.Kernel{
		Accesses: 100, ComputePerMem: 4, WriteFrac: 0.3, HotFrac: 0.5,
		Region: cmppower.Region{Size: 4, Scope: cmppower.Shared},
	}
	if _, err := cmppower.Simulate(prog, cmppower.DefaultSimConfig(2, tab.Nominal())); err == nil {
		t.Fatal("Simulate accepted a 4-byte hot window")
	}
}

func TestFacadeExperimentEndToEnd(t *testing.T) {
	rig, err := cmppower.NewExperiment(0.05)
	if err != nil {
		t.Fatal(err)
	}
	app, err := cmppower.AppByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rig.ScenarioI(app, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].N != 4 {
		t.Fatalf("rows %+v", res.Rows)
	}
	res2, err := rig.ScenarioII(app, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 {
		t.Fatalf("rows %+v", res2.Rows)
	}
}

func TestFacadeBuilderAndMulti(t *testing.T) {
	prog, err := cmppower.BuildProgram("facade-built").
		Compute(500, 0.2).
		Sync().
		Program()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := cmppower.NewDVFSTable(cmppower.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cmppower.SimulateMulti([]*cmppower.Program{prog, prog},
		cmppower.DefaultSimConfig(2, tab.Nominal()))
	if err != nil {
		t.Fatal(err)
	}
	if res.NCores != 2 || res.Instructions <= 0 {
		t.Fatalf("multi result %+v", res)
	}
	prof, err := cmppower.ProfileThread(prog, 0, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Instructions <= 0 {
		t.Error("empty profile")
	}
}

func TestFacadeTransientConfig(t *testing.T) {
	tc := cmppower.DefaultTransientConfig()
	if tc.TimeDilation <= 1 {
		t.Errorf("default dilation %g", tc.TimeDilation)
	}
	if tc.StartTempC != cmppower.AmbientTempC {
		t.Errorf("start temp %g", tc.StartTempC)
	}
}

func TestFacadeWorkloadClasses(t *testing.T) {
	// The class constants are re-exported coherently.
	for _, c := range []cmppower.WorkloadClass{
		cmppower.ComputeBound, cmppower.MemoryBound, cmppower.SyncBound, cmppower.Mixed,
	} {
		if c == "" {
			t.Error("empty class constant")
		}
	}
}

package splash

import (
	"testing"

	"cmppower/internal/cmp"
	"cmppower/internal/dvfs"
	"cmppower/internal/phys"
	"cmppower/internal/workload"
)

func TestCatalogComplete(t *testing.T) {
	apps := Catalog()
	if len(apps) != 12 {
		t.Fatalf("catalog has %d apps, want 12 (Table 2)", len(apps))
	}
	want := map[string]string{
		"Barnes":    "16K particles",
		"Cholesky":  "tk15.O",
		"FFT":       "64K points",
		"FMM":       "16K particles",
		"LU":        "512x512 matrix, 16x16 blocks",
		"Ocean":     "514x514 ocean",
		"Radiosity": "room -ae 5000.0 -en 0.05 -bf 0.1",
		"Radix":     "1M integers, radix 1024",
		"Raytrace":  "car",
		"Volrend":   "head",
		"Water-Nsq": "512 molecules",
		"Water-Sp":  "512 molecules",
	}
	for _, a := range apps {
		size, ok := want[a.Name]
		if !ok {
			t.Errorf("unexpected app %q", a.Name)
			continue
		}
		if a.ProblemSize != size {
			t.Errorf("%s problem size %q, want %q (Table 2)", a.Name, a.ProblemSize, size)
		}
	}
}

func TestCatalogSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("catalog not sorted at %q", names[i])
		}
	}
}

// TestCatalogCopiesAreIndependent: the catalog is built once and shared,
// so every Catalog call must hand out its own copy — a caller that
// rewrites or reorders its slice changes nothing another caller sees.
func TestCatalogCopiesAreIndependent(t *testing.T) {
	names := Names()
	apps := Catalog()
	apps[0].Name, apps[0].IPCNonMem = "Mutated", -1
	apps[1], apps[2] = apps[2], apps[1]
	for i, a := range Catalog() {
		if a.Name != names[i] || a.IPCNonMem <= 0 {
			t.Fatalf("mutating one Catalog slice reached the next call: entry %d is %s (IPC %g), want %s",
				i, a.Name, a.IPCNonMem, names[i])
		}
	}
	if _, err := ByName("Mutated"); err == nil {
		t.Fatal("ByName found a name only a caller's copy holds")
	}
	if a, err := ByName(names[0]); err != nil || a.IPCNonMem <= 0 {
		t.Fatalf("ByName(%q) after the mutation: %+v, %v", names[0], a, err)
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("Radix")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "Radix" {
		t.Errorf("got %q", a.Name)
	}
	if _, err := ByName("NotAnApp"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestProgramsValidate(t *testing.T) {
	for _, a := range Catalog() {
		for _, scale := range []float64{1.0, 0.1, 0.0} {
			p := a.Program(scale)
			if err := p.Validate(); err != nil {
				t.Errorf("%s at scale %g: %v", a.Name, scale, err)
			}
		}
	}
}

func TestCoreConfigsValidate(t *testing.T) {
	for _, a := range Catalog() {
		if err := a.CoreConfig().Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestRunsOn(t *testing.T) {
	lu, err := ByName("LU")
	if err != nil {
		t.Fatal(err)
	}
	if !lu.RunsOn(8) || lu.RunsOn(6) {
		t.Error("power-of-two restriction wrong for LU")
	}
	barnes, err := ByName("Barnes")
	if err != nil {
		t.Fatal(err)
	}
	if !barnes.RunsOn(6) {
		t.Error("Barnes should run on any thread count")
	}
	if lu.RunsOn(0) || barnes.RunsOn(0) {
		t.Error("zero threads accepted")
	}
}

func TestEveryProgramTerminates(t *testing.T) {
	// Drain every app's thread-0 stream at small scale.
	for _, a := range Catalog() {
		p := a.Program(0.05)
		counts, instr, err := workload.CountEvents(p, 0, 4, 1, 1<<24)
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		if instr <= 0 {
			t.Errorf("%s: no instructions", a.Name)
		}
		if counts[workload.EvLockAcq] != counts[workload.EvLockRel] {
			t.Errorf("%s: unbalanced locks", a.Name)
		}
	}
}

func TestEveryAppSimulates(t *testing.T) {
	tab, err := dvfs.PentiumMStyle(phys.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Catalog() {
		cfg := cmp.DefaultConfig(4, tab.Nominal())
		cfg.Core = a.CoreConfig()
		res, err := cmp.Run(a.Program(0.05), cfg)
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		if res.Cycles <= 0 || res.Instructions <= 0 {
			t.Errorf("%s: empty result", a.Name)
		}
	}
}

func TestQualitativeClasses(t *testing.T) {
	// The class structure the paper's evaluation leans on: Radix must be
	// far more memory-bound than FMM; FMM must have the higher IPC.
	tab, err := dvfs.PentiumMStyle(phys.Tech65())
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string) *cmp.Result {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cmp.DefaultConfig(1, tab.Nominal())
		cfg.Core = a.CoreConfig()
		res, err := cmp.Run(a.Program(0.2), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	fmm := run("FMM")
	radix := run("Radix")
	if fmm.IPC() <= radix.IPC()*1.5 {
		t.Errorf("FMM IPC %g should be well above Radix %g", fmm.IPC(), radix.IPC())
	}
	memFrac := func(r *cmp.Result) float64 {
		var memC, total float64
		for _, st := range r.PerCore {
			memC += st.MemCycles
			total += st.FinishClock
		}
		return memC / total
	}
	if memFrac(radix) <= memFrac(fmm) {
		t.Errorf("Radix mem fraction %g should exceed FMM %g", memFrac(radix), memFrac(fmm))
	}
}

func TestScaleControlsWork(t *testing.T) {
	a, err := ByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	_, iSmall, err := workload.CountEvents(a.Program(0.05), 0, 1, 1, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	_, iBig, err := workload.CountEvents(a.Program(0.5), 0, 1, 1, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	if iBig < iSmall*5 {
		t.Errorf("scale 0.5 instructions %d not ≈10x scale 0.05 %d", iBig, iSmall)
	}
}

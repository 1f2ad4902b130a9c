package experiment

import (
	"context"
	"errors"
	"fmt"

	"cmppower/internal/cmp"
	"cmppower/internal/splash"
)

// PlacementPolicy chooses which physical cores host an n-thread run on the
// 16-core die — the thermal-aware core-assignment question that follows
// directly from the paper's shut-down-unused-cores assumption.
type PlacementPolicy string

// Placement policies.
const (
	// Contiguous activates cores 0..n-1 (the paper's implicit layout).
	Contiguous PlacementPolicy = "contiguous"
	// Spread scatters active cores across the die to maximize the silicon
	// between hot tiles (checkerboard-style).
	Spread PlacementPolicy = "spread"
)

// spreadOrder lists the 16 grid positions in an order that keeps any
// prefix maximally dispersed on the 4×4 core grid.
var spreadOrder = []int{0, 15, 3, 12, 5, 10, 6, 9, 1, 14, 2, 13, 4, 11, 7, 8}

// placementPerm returns thread-to-physical-core assignments for the policy.
func placementPerm(policy PlacementPolicy, n, totalCores int) ([]int, error) {
	if n < 1 || n > totalCores {
		return nil, fmt.Errorf("experiment: %d threads on %d cores", n, totalCores)
	}
	perm := make([]int, n)
	switch policy {
	case Contiguous:
		for i := range perm {
			perm[i] = i
		}
	case Spread:
		if totalCores != len(spreadOrder) {
			// Fall back to striding for non-16-core chips.
			stride := totalCores / n
			if stride < 1 {
				stride = 1
			}
			for i := range perm {
				perm[i] = (i * stride) % totalCores
			}
		} else {
			copy(perm, spreadOrder[:n])
		}
	default:
		return nil, fmt.Errorf("experiment: unknown placement policy %q", policy)
	}
	return perm, nil
}

// PlacementRow is one policy's thermal outcome.
type PlacementRow struct {
	Policy       PlacementPolicy
	PowerW       float64
	AvgCoreTempC float64
	PeakTempC    float64
}

// PlacementStudy compares placements for one run. Timing is placement-
// independent in this model (the bus is uniform), so the comparison is
// purely thermal: identical activity mapped onto different core subsets.
type PlacementStudy struct {
	App  string
	N    int
	Rows []PlacementRow
	// PeakReduction is contiguous peak minus spread peak, °C.
	PeakReduction float64
}

// ErrUnsupportedChip reports an experiment that cannot honour the rig's
// chip. Placement returns it, wrapped, on chips whose cores differ.
var ErrUnsupportedChip = errors.New("experiment: chip not supported by this experiment")

// Placement runs app once on n cores at nominal V/f and evaluates the
// power/thermal outcome under each placement policy. Its premise, that
// timing and power do not depend on which cores run, fails when cores
// differ, so on a chip with a DVFS island below the lead point or a core
// class that changes the core (scenario.Heterogeneous) it returns an
// error matching ErrUnsupportedChip.
func (r *Rig) Placement(app splash.App, n int) (*PlacementStudy, error) {
	if r.Scenario.Heterogeneous() {
		return nil, fmt.Errorf("%w: placement assumes interchangeable cores, and %s has DVFS islands or core classes",
			ErrUnsupportedChip, r.Scenario.Name)
	}
	if !app.RunsOn(n) || n < 2 {
		return nil, fmt.Errorf("experiment: %s does not run on %d cores (need n >= 2)", app.Name, n)
	}
	if n > r.TotalCores {
		return nil, fmt.Errorf("experiment: %d threads exceed %d cores", n, r.TotalCores)
	}
	p := r.Table.Nominal()
	cfg := r.runConfig(context.TODO(), app, n, p, r.Seed)
	res, err := cmp.Run(app.Program(r.Scale), cfg)
	if err != nil {
		return nil, err
	}
	study := &PlacementStudy{App: app.Name, N: n}
	for _, policy := range []PlacementPolicy{Contiguous, Spread} {
		perm, err := placementPerm(policy, n, r.TotalCores)
		if err != nil {
			return nil, err
		}
		act, err := res.Activity.Remap(perm)
		if err != nil {
			return nil, err
		}
		active := make([]bool, r.TotalCores)
		for _, c := range perm {
			active[c] = true
		}
		pw, err := r.evaluateRun(act, res.Seconds, int64(res.Cycles)+1, p, active)
		if err != nil {
			return nil, err
		}
		study.Rows = append(study.Rows, PlacementRow{
			Policy: policy, PowerW: pw.TotalW,
			AvgCoreTempC: pw.AvgCoreTemp, PeakTempC: pw.PeakTempC,
		})
	}
	study.PeakReduction = study.Rows[0].PeakTempC - study.Rows[1].PeakTempC
	return study, nil
}

package experiment

import (
	"context"
	"fmt"

	"cmppower/internal/cmp"
	"cmppower/internal/splash"
)

// CPIStack breaks one run's cycles per instruction into where the time
// went — the standard first-look characterization of a workload.
type CPIStack struct {
	App string
	N   int
	CPI float64
	// Shares sum to ~1: fraction of total core cycles in each bucket.
	ComputeShare float64
	MemShare     float64
	BranchShare  float64
	FetchShare   float64
	IdleShare    float64 // barrier/lock waiting
	// Class is the derived qualitative label.
	Class WorkloadClass
}

// WorkloadClass is a coarse workload category.
type WorkloadClass string

// Workload classes.
const (
	ComputeBound WorkloadClass = "compute-bound"
	MemoryBound  WorkloadClass = "memory-bound"
	SyncBound    WorkloadClass = "sync-bound"
	Mixed        WorkloadClass = "mixed"
)

// classify derives the label from the shares.
func classify(compute, mem, idle float64) WorkloadClass {
	switch {
	case idle > 0.35:
		return SyncBound
	case mem > 0.55:
		return MemoryBound
	case compute > 0.55:
		return ComputeBound
	}
	return Mixed
}

// Classify runs app on n cores at nominal V/f and returns its CPI stack.
func (r *Rig) Classify(app splash.App, n int) (*CPIStack, error) {
	if !app.RunsOn(n) {
		return nil, fmt.Errorf("experiment: %s does not run on %d cores", app.Name, n)
	}
	cfg := r.runConfig(context.TODO(), app, n, r.Table.Nominal(), r.Seed)
	res, err := cmp.Run(app.Program(r.Scale), cfg)
	if err != nil {
		return nil, err
	}
	var compute, mem, branch, fetch, idle, total float64
	var instr int64
	for _, st := range res.PerCore {
		compute += st.ComputeCycles
		mem += st.MemCycles
		branch += st.BranchCycles
		fetch += st.FetchCycles
		idle += st.IdleCycles
		total += st.FinishClock
		instr += st.Instructions
	}
	if total <= 0 || instr <= 0 {
		return nil, fmt.Errorf("experiment: empty run for %s", app.Name)
	}
	out := &CPIStack{
		App: app.Name, N: n,
		CPI:          total / float64(instr) * float64(n),
		ComputeShare: compute / total,
		MemShare:     mem / total,
		BranchShare:  branch / total,
		FetchShare:   fetch / total,
		IdleShare:    idle / total,
	}
	out.Class = classify(out.ComputeShare, out.MemShare, out.IdleShare)
	return out, nil
}

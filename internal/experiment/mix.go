package experiment

import (
	"context"
	"fmt"

	"cmppower/internal/cmp"
	"cmppower/internal/cpu"
	"cmppower/internal/dvfs"
	"cmppower/internal/splash"
	"cmppower/internal/workload"
)

// MixJob is one job's outcome inside a multiprogrammed run.
type MixJob struct {
	App string
	// SoloSeconds is the job's runtime alone on the chip at the same
	// operating point; MixSeconds is its runtime in the mix.
	SoloSeconds float64
	MixSeconds  float64
	// Slowdown is MixSeconds/SoloSeconds (>= ~1: shared L2, bus and
	// memory-channel contention).
	Slowdown float64
}

// MixResult is a multiprogrammed throughput measurement — the workload
// style of the SMT/CMP studies the paper's related work surveys, here on
// the same calibrated chip.
type MixResult struct {
	Point dvfs.OperatingPoint
	Jobs  []MixJob
	// WeightedSpeedup is Σ(solo/mix), the standard multiprogrammed
	// throughput metric (equals job count without any contention).
	WeightedSpeedup float64
	// PowerW is the chip power during the mix; WithinBudget compares it
	// with the single-core budget.
	PowerW       float64
	WithinBudget bool
}

// Mix runs one single-threaded copy of each application concurrently (one
// per core) at operating point p and reports per-job slowdowns, weighted
// speedup, and chip power.
func (r *Rig) Mix(apps []splash.App, p dvfs.OperatingPoint) (*MixResult, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("experiment: empty mix")
	}
	if len(apps) > r.TotalCores {
		return nil, fmt.Errorf("experiment: %d jobs exceed %d cores", len(apps), r.TotalCores)
	}
	// Solo baselines at the same operating point, each with the same
	// derived seed its job will use inside the mix. The derived seed is
	// passed per run so the shared rig is never mutated.
	ctx := context.TODO()
	solo := make([]float64, len(apps))
	for i, app := range apps {
		m, err := r.RunAppSeeded(ctx, app, 1, p, cmp.MultiSeed(r.Seed, i))
		if err != nil {
			return nil, err
		}
		solo[i] = m.Seconds
	}
	// The mix: one single-threaded program per core, each with its app's
	// own core tuning on that core of the chip. The per-job configs
	// replace the per-core ones runConfig derived from the first app.
	n := len(apps)
	cfg := r.runConfig(ctx, apps[0], n, p, r.Seed)
	cfg.PerCore = make([]cpu.Config, n)
	progs := make([]*workload.Program, n)
	for i, app := range apps {
		cfg.PerCore[i] = r.chipCore(app.CoreConfig(), i)
		progs[i] = app.Program(r.Scale)
	}
	res, err := cmp.RunMulti(progs, cfg)
	if err != nil {
		return nil, err
	}
	pw, err := r.evaluateRun(res.Activity, res.Seconds, int64(res.Cycles)+1, p, r.activeCores(n))
	if err != nil {
		return nil, err
	}
	out := &MixResult{Point: p, PowerW: pw.TotalW, WithinBudget: pw.TotalW <= r.BudgetW()}
	for i, app := range apps {
		mixSec := res.PerCore[i].FinishClock / p.Freq
		job := MixJob{
			App:         app.Name,
			SoloSeconds: solo[i],
			MixSeconds:  mixSec,
		}
		if solo[i] > 0 {
			job.Slowdown = mixSec / solo[i]
			out.WeightedSpeedup += solo[i] / mixSec
		}
		out.Jobs = append(out.Jobs, job)
	}
	return out, nil
}

package experiment

import (
	"context"
	"fmt"

	"cmppower/internal/cache"
	"cmppower/internal/cmp"
	"cmppower/internal/splash"
)

// CacheSweepRow is one (L1 size, core count) measurement.
type CacheSweepRow struct {
	L1KB       int
	N          int
	MissRate   float64 // L1D misses per access
	CPI        float64 // aggregate cycles per instruction × N (per-core CPI)
	Seconds    float64
	NominalEff float64 // vs the same L1 size at N=1
}

// CacheSweep measures an application's sensitivity to L1 capacity across
// core counts. The paper's superlinear-efficiency story rests on aggregate
// L1 capacity (ε_n > 1 when the per-core share of the working set starts
// fitting); this sweep exposes exactly that interaction.
type CacheSweep struct {
	App  string
	Rows []CacheSweepRow
}

// CacheSweepL1 runs app across l1KBs × coreCounts at nominal V/f.
func (r *Rig) CacheSweepL1(app splash.App, l1KBs []int, coreCounts []int) (*CacheSweep, error) {
	if len(l1KBs) == 0 || len(coreCounts) == 0 {
		return nil, fmt.Errorf("experiment: empty cache sweep")
	}
	out := &CacheSweep{App: app.Name}
	p := r.Table.Nominal()
	for _, kb := range l1KBs {
		if kb < 1 {
			return nil, fmt.Errorf("experiment: L1 size %d KB", kb)
		}
		var baseSeconds float64
		for _, n := range coreCounts {
			if !app.RunsOn(n) {
				continue
			}
			cfg := r.runConfig(context.TODO(), app, n, p, r.Seed)
			cc := cache.DefaultConfig(n, p.Freq)
			cc.L1 = cache.Geometry{SizeBytes: kb << 10, LineBytes: 64, Ways: 2}
			cfg.CacheOverride = &cc
			res, err := cmp.Run(app.Program(r.Scale), cfg)
			if err != nil {
				return nil, fmt.Errorf("experiment: %s L1=%dKB N=%d: %w", app.Name, kb, n, err)
			}
			var acc, miss int64
			for c := 0; c < n; c++ {
				acc += res.CacheStats.L1DAccess[c]
				miss += res.CacheStats.L1DMiss[c]
			}
			row := CacheSweepRow{L1KB: kb, N: n, Seconds: res.Seconds}
			if acc > 0 {
				row.MissRate = float64(miss) / float64(acc)
			}
			if res.Instructions > 0 {
				row.CPI = res.Cycles * float64(n) / float64(res.Instructions)
			}
			if n == 1 {
				baseSeconds = res.Seconds
			}
			if baseSeconds > 0 {
				row.NominalEff = baseSeconds / (float64(n) * res.Seconds)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	if len(out.Rows) == 0 {
		return nil, fmt.Errorf("experiment: %s runs on none of the requested core counts", app.Name)
	}
	return out, nil
}

package experiment

import (
	"fmt"

	"cmppower/internal/surrogate"
)

// SurrogateConfig is the rig-configuration component of the surrogate
// key: everything beyond (app, scale) that changes the simulated
// physics. Two rigs with equal strings produce samples one fit may
// pool; the workload seed is deliberately absent (the surrogate
// predicts the run, not the seed — see package surrogate).
func (r *Rig) SurrogateConfig() string {
	s := fmt.Sprintf("tc%d sys=%t pf=%t", r.TotalCores, r.ScaleMemoryWithChip, r.Prefetch)
	if r.scenarioDigest != "" {
		// Non-baseline scenarios carry their content digest so fits never
		// pool samples across different chips; the baseline chip keeps its
		// digest-free key string.
		s += " scn=" + r.scenarioDigest
	}
	return s
}

// SurrogateKey is the surrogate-store key for app on this rig.
func (r *Rig) SurrogateKey(app string) surrogate.Key {
	return surrogate.Key{App: app, Scale: r.Scale, Config: r.SurrogateConfig()}
}

// feedSurrogate hands one completed measurement to the attached
// surrogate store. Only clean runs train the fit: active fault
// injection perturbs the simulation (and already bypasses the memo for
// the same reason), and a DTM rig's governed runs change nothing about
// the base measurement but mark the rig as a different workload
// intent — both are excluded so the surrogate only ever models the pure
// simulator.
func (r *Rig) feedSurrogate(m *Measurement) {
	if r.Surrogate == nil || r.DTM != nil || !r.memoizable() {
		return
	}
	nom := r.Table.Nominal()
	r.Surrogate.Observe(r.SurrogateKey(m.App), nom.Freq, nom.Volt, surrogate.Sample{
		N:       m.N,
		Freq:    m.Point.Freq,
		Volt:    m.Point.Volt,
		Seconds: m.Seconds,
		PowerW:  m.PowerW,
		DynW:    m.DynW,
		StaticW: m.StaticW,
	})
}

package explore

import (
	"math"

	"cmppower/internal/splash"
	"cmppower/internal/surrogate"
)

// SourcedOutcome is an exploration cell with its provenance: a full
// simulation, or a surrogate extrapolation for a cell the pruner
// established cannot win.
type SourcedOutcome struct {
	Outcome
	// Source is "simulation" or "surrogate".
	Source string
	// Margin is the factor by which the cell's extrapolated EDP lost to
	// the best extrapolated EDP (only set on surrogate rows; always >
	// PruneMargin, otherwise the cell would have been simulated).
	Margin float64
}

// PruneMargin is how decisively a cell must lose on extrapolated EDP
// before the pruner skips its simulation. The surrogate's global model
// carries no error bound across chip organizations (different issue
// widths, L2 capacities and calibration points than it was trained on),
// so the margin has to absorb all of that modeling gap: a cell is only
// pruned when even a PruneMargin× extrapolation error could not make it
// the winner.
const PruneMargin = 3.0

// estimate is a pruned cell's surrogate answer: the extrapolated run and
// the factor by which its EDP lost to the app's best extrapolated EDP.
type estimate struct {
	pred   surrogate.Prediction
	margin float64
}

// pruneCells picks the cells Explore answers from the surrogate instead
// of simulating: those whose extrapolated energy-delay product, at the
// fit's own nominal operating point, loses to the per-app best by more
// than PruneMargin (each organization calibrates its own ladder, one
// more gap PruneMargin has to cover). Cells that are never pruned,
// regardless of estimates:
//
//   - the reference organization refName, which anchors every speedup;
//   - organizations with more than 16 cores, where the efficiency curve
//     is pure extrapolation beyond every trained count;
//   - every cell of an app with no active fit under keyFor.
//
// A nil store or keyFor prunes nothing. keyFor must fold the chip's
// scenario digest into its keys — rig.SurrogateKey does — so fits
// trained on a different chip never prune this one's cells. BestByEDP
// over the simulated cells equals BestByEDP over a full simulation
// whenever the margin holds — the contract
// TestPrunedExploreAgreesWithFull enforces.
func pruneCells(apps []splash.App, opts []Option, refName string, store *surrogate.Store,
	keyFor func(app string) surrogate.Key) map[[2]string]estimate {
	prune := map[[2]string]estimate{} // [option, app] -> estimate
	if store == nil || keyFor == nil {
		return prune
	}
	for _, app := range apps {
		fit := store.FitFor(keyFor(app.Name))
		if fit == nil {
			continue
		}
		preds := make([]surrogate.Prediction, len(opts))
		bestEDP := math.Inf(1)
		for i, opt := range opts {
			preds[i] = fit.Extrapolate(maxThreads(app, opt.Cores), fit.NomFreqHz, fit.NomVolt)
			if preds[i].EDP > 0 && preds[i].EDP < bestEDP {
				bestEDP = preds[i].EDP
			}
		}
		if math.IsInf(bestEDP, 1) {
			continue
		}
		for i, opt := range opts {
			if opt.Name == refName || opt.Cores > 16 || !(preds[i].EDP > 0) {
				continue
			}
			if m := preds[i].EDP / bestEDP; m > PruneMargin {
				prune[[2]string{opt.Name, app.Name}] = estimate{pred: preds[i], margin: m}
			}
		}
	}
	return prune
}

// Outcomes strips provenance, for callers that only need the grid.
func Outcomes(cells []SourcedOutcome) []Outcome {
	out := make([]Outcome, len(cells))
	for i, c := range cells {
		out[i] = c.Outcome
	}
	return out
}

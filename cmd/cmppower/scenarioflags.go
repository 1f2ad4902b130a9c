package main

import (
	"flag"
	"fmt"
	"strings"

	"cmppower"
	"cmppower/internal/scenario"
)

// scenarioFlags is the shared -scenario plumbing of the simulation
// commands (fig3, fig4, explore): one flag spelling, one loader, one
// rig constructor, one manifest annotation. Without the flag every
// command runs the baseline chip and annotates nothing, so the flagless
// manifests keep their bytes; with a baseline-equivalent scenario file
// the sweep ladder and apparatus resolve to the same values, so stdout
// stays byte-identical too (the scenario-smoke script pins this).
type scenarioFlags struct {
	path *string
	sc   *scenario.Scenario
}

// addScenarioFlag registers -scenario on fs.
func addScenarioFlag(fs *flag.FlagSet) *scenarioFlags {
	s := &scenarioFlags{}
	s.path = fs.String("scenario", "", "chip scenario `file` (JSON, see examples/scenarios); empty = the paper's baseline 16-way CMP")
	return s
}

// scenario loads, validates, and memoizes the flag's scenario document;
// nil when the flag was not given.
func (s *scenarioFlags) scenario() (*scenario.Scenario, error) {
	if *s.path == "" {
		return nil, nil
	}
	if s.sc == nil {
		sc, err := scenario.LoadFile(*s.path)
		if err != nil {
			return nil, err
		}
		s.sc = sc
	}
	return s.sc, nil
}

// rig builds the command's apparatus: the scenario's chip, or the
// baseline chip when no -scenario was given.
func (s *scenarioFlags) rig(scale float64) (*cmppower.Experiment, error) {
	sc, err := s.scenario()
	if err != nil {
		return nil, err
	}
	return cmppower.NewExperimentFromScenario(sc, scale)
}

// counts resolves the core-count ladder for the figure sweeps: powers
// of two up to the chip's core count. The baseline chip (and the
// flagless path) resolves to the paper's {1,2,4,8,16}.
func (s *scenarioFlags) counts() ([]int, error) {
	total := 16
	if sc, err := s.scenario(); err != nil {
		return nil, err
	} else if sc != nil {
		total = sc.Chip.TotalCores
	}
	var counts []int
	for n := 1; n <= total; n *= 2 {
		counts = append(counts, n)
	}
	if counts[len(counts)-1] != total {
		counts = append(counts, total)
	}
	return counts, nil
}

// annotate folds the scenario identity (name + content digest) into a
// manifest config map. A no-op without -scenario, so flagless manifests
// keep their exact canonical bytes (doctor check 11 compares them
// across -j).
func (s *scenarioFlags) annotate(config map[string]string) (map[string]string, error) {
	sc, err := s.scenario()
	if err != nil {
		return nil, err
	}
	if sc == nil {
		return config, nil
	}
	digest, err := sc.Digest()
	if err != nil {
		return nil, err
	}
	config["scenario"] = sc.Name
	config["scenario_digest"] = digest
	return config, nil
}

// countsLabel renders a ladder for manifest config maps.
func countsLabel(counts []int) string {
	parts := make([]string, len(counts))
	for i, n := range counts {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, ",")
}

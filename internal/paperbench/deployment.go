package paperbench

import (
	"math/rand"

	"cbma/internal/core"
	"cbma/internal/sim"
)

// deploymentStudy runs the Fig. 10 experiment: `groups` random table
// placements of base.NumTags tags, each measured under three configurations
// — no control, power control, and power control plus node selection —
// returning the per-group FER samples for CDF plotting. Node selection
// re-places tags between measurements, so each group runs the core.System
// loop rather than a campaign point.
func deploymentStudy(base sim.Scenario, groups int) (none, pc, pcns []float64, err error) {
	rng := rand.New(rand.NewSource(sim.DeriveSeed(base.Seed, seedDeploymentPlacement)))
	// Deterministic placement draws up front, then independent groups run
	// in parallel (see sim.RunParallel).
	scns := make([]sim.Scenario, groups)
	for g := range scns {
		scn, err := tablePlacement(base, base.NumTags, rng)
		if err != nil {
			return nil, nil, nil, err
		}
		scn.Seed = sim.DeriveSeed(base.Seed, seedDeploymentGroup, uint64(g))
		scn.RandomInitialImpedance = true
		scns[g] = scn
	}
	none = make([]float64, groups)
	pc = make([]float64, groups)
	pcns = make([]float64, groups)
	runOne := func(scn sim.Scenario, nodeSelection bool) (float64, error) {
		sys, err := core.New(core.Config{Scenario: scn, NodeSelection: nodeSelection})
		if err != nil {
			return 0, err
		}
		rep, err := sys.Run()
		if err != nil {
			return 0, err
		}
		return rep.Final.FER, nil
	}
	err = sim.RunParallel(groups, func(g int) error {
		scn := scns[g]
		scn.PowerControl = false
		v, err := runOne(scn, false)
		if err != nil {
			return err
		}
		none[g] = v
		scn.PowerControl = true
		if v, err = runOne(scn, false); err != nil {
			return err
		}
		pc[g] = v
		if v, err = runOne(scn, true); err != nil {
			return err
		}
		pcns[g] = v
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return none, pc, pcns, nil
}

package cbma

import (
	"context"

	"cbma/internal/fault"
	"cbma/internal/paperbench"
	"cbma/internal/sim"
)

// Fault-injection configuration and accounting (see internal/fault and the
// DESIGN.md "Fault model & resilience semantics" section).
type (
	// FaultProfile declares per-layer fault intensities; assign a pointer to
	// Scenario.Fault to arm the injection layer.
	FaultProfile = fault.Profile
	// FaultCounters is the degradation ledger of a run (Metrics.Faults).
	FaultCounters = fault.Counters
	// PointError and CampaignError carry per-point campaign failures
	// alongside the surviving points' metrics.
	PointError    = sim.PointError
	CampaignError = sim.CampaignError
)

// CampaignOpts configures RunCampaign.
type CampaignOpts = sim.CampaignOpts

// RunCampaign runs one engine per scenario, parallelizing across points
// and — when the worker budget exceeds the point count — across each
// point's steady-state rounds. Results are indexed like points and are
// independent of the budget (see Scenario.Workers for the per-engine
// reproducibility contract).
func RunCampaign(points []Scenario, opts CampaignOpts) ([]Metrics, error) {
	return sim.RunCampaign(points, opts)
}

// RunCampaignContext is RunCampaign with cooperative cancellation and
// resilient point execution: every point runs regardless of other points'
// failures, failed points report through a *CampaignError while healthy
// points keep their metrics, and cancellation returns the partial results
// collected so far (see sim.RunCampaignContext).
func RunCampaignContext(ctx context.Context, points []Scenario, opts CampaignOpts) ([]Metrics, error) {
	return sim.RunCampaignContext(ctx, points, opts)
}

// DeriveSeed deterministically derives a child scenario seed from a base
// seed and a sequence of labels (experiment identifier, point index, …).
// Distinct label sequences give independent seeds, which is what per-point
// seeds in a sweep need — additive seed arithmetic collides.
func DeriveSeed(seed int64, labels ...uint64) int64 {
	return sim.DeriveSeed(seed, labels...)
}

// FaultSweepPoints builds the campaign points of a fault sweep: one point
// per rate, mod setting one knob of the fault profile, every point under
// the same derived seed (common random numbers) so the degradation curve is
// smooth and monotone at modest packet counts. Run them with RunCampaign.
func FaultSweepPoints(base Scenario, rates []float64, mod func(*FaultProfile, float64)) []Scenario {
	return sim.FaultSweepPoints(base, rates, mod)
}

// Experiment is one table or figure of the paper's evaluation (plus the
// DESIGN.md ablations): Run executes it and prints the table, and Points,
// where set, exposes its campaign.
type Experiment = paperbench.Experiment

// ExperimentOptions scales the experiments' workloads; every count must be
// positive.
type ExperimentOptions = paperbench.Options

// Experiments returns the paper's experiments in presentation order, the
// registry cbmabench runs.
func Experiments() []Experiment { return paperbench.All() }

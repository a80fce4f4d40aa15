// Package core is the interface-driven heart of the campaign-serving
// stack: a Runner abstraction over the simulation engine, a content-keyed
// result Store (in-memory LRU and on-disk content-addressed backends), and
// a Service that composes the two so identical requests are answered from
// the cache instead of re-executed.
//
// Caching is sound — not an approximation — because the layers below
// guarantee that an identical request produces bit-identical Metrics:
// per-point seeds come from collision-free DeriveSeed labels, rounds draw
// from per-round RNG streams and commit in round order (worker-count
// invariant), and telemetry is provably off the result path. The cache key
// is Scenario.Hash(), the canonical golden-tested serialization of every
// result-relevant scenario field. See DESIGN.md, "Service architecture".
package core

import (
	"context"

	"cbma/internal/sim"
)

// Runner executes a slice of campaign points and returns their Metrics,
// indexed like the points. It is the seam between the serving stack and
// the simulation engine: the daemon runs campaigns through it, either
// in-process (CampaignRunner) or across worker processes (the shard
// coordinator), and tests substitute counting, blocking or failing
// runners. Service runs at most one Runner call at a time.
//
// Implementations must preserve sim.RunCampaignContext's contract: every
// point is attempted regardless of other points' failures, failed points
// hold the zero Metrics in their slot with the detail in a
// *sim.CampaignError, and cancellation returns partial, Interrupted
// metrics together with the context's error.
type Runner interface {
	Run(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error)
}

// CampaignRunner is the production Runner: sim.RunCampaignContext.
type CampaignRunner struct{}

// Run implements Runner.
func (CampaignRunner) Run(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error) {
	return sim.RunCampaignContext(ctx, points, opts)
}

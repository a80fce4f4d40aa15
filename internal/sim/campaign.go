package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"cbma/internal/obs"
)

// CampaignOpts configures RunCampaign.
type CampaignOpts struct {
	// Workers is the total goroutine budget, shared between concurrently
	// executing points and each engine's steady-state round workers. Zero
	// selects GOMAXPROCS.
	Workers int
	// What labels campaign errors and telemetry with the campaign's purpose
	// (e.g. the experiment ID "fig8a").
	What string
	// Obs, when non-nil, times campaign points, drives the live progress
	// line, and is attached to every point scenario that does not already
	// carry its own observer. Telemetry never changes results (see
	// Scenario.Obs). When nil, the first point's Scenario.Obs (if any) still
	// receives the campaign-level progress and events.
	Obs *obs.Observer
}

// PointError records one failed campaign point, preserving which point and
// which harness produced it. Unwrap exposes the underlying cause for
// errors.Is/As.
type PointError struct {
	// What is the campaign label (CampaignOpts.What); Point the failing
	// scenario's index within the campaign.
	What  string
	Point int
	// Err is the underlying failure — an engine configuration error or a
	// recovered point-level panic.
	Err error
}

// Error implements error.
func (e *PointError) Error() string {
	return fmt.Sprintf("sim: %s: point %d: %v", e.What, e.Point, e.Err)
}

// Unwrap exposes the cause.
func (e *PointError) Unwrap() error { return e.Err }

// CampaignError aggregates every failed point of a campaign. RunCampaign
// returns it alongside the partial metrics slice: healthy points keep their
// results, failed ones hold the zero Metrics. Unwrap returns the per-point
// errors so errors.Is/As see through the aggregate.
type CampaignError struct {
	Points []*PointError
}

// Error reports the first failure and the overall count.
func (e *CampaignError) Error() string {
	if len(e.Points) == 1 {
		return e.Points[0].Error()
	}
	return fmt.Sprintf("%v (and %d more failed points)", e.Points[0], len(e.Points)-1)
}

// Unwrap implements the multi-error unwrapping contract of errors.Is/As.
func (e *CampaignError) Unwrap() []error {
	out := make([]error, len(e.Points))
	for i, pe := range e.Points {
		out[i] = pe
	}
	return out
}

// RunCampaign builds one engine per scenario and runs them all, returning
// the metrics indexed like points. It is the single execution entry behind
// the paperbench experiments and the fault sweeps: the worker budget is
// split so points run concurrently first, and — when the budget exceeds the
// point count — the surplus parallelizes each point's
// steady-state rounds (Scenario.Workers). A point with Workers already set
// keeps its own value. Results are independent of the budget: each point's
// metrics depend only on its scenario (see DeriveSeed for per-point seeds),
// and rounds are bit-reproducible for any worker count.
func RunCampaign(points []Scenario, opts CampaignOpts) ([]Metrics, error) {
	return RunCampaignContext(context.Background(), points, opts) //cbma:allow ctxflow public convenience entrypoint roots its own context
}

// RunCampaignContext is RunCampaign with cooperative cancellation and
// resilient point execution. Every point runs regardless of other points'
// failures — a broken scenario degrades the campaign instead of discarding
// the healthy points' work — and a point that fails (including by panic)
// leaves the zero Metrics in its slot and contributes a PointError to the
// returned *CampaignError. Cancellation stops dispatching new points;
// points already running return their partial, Interrupted metrics, and the
// context's error is returned (point failures, if any also occurred, take
// precedence so they are not masked).
func RunCampaignContext(ctx context.Context, points []Scenario, opts CampaignOpts) ([]Metrics, error) {
	if len(points) == 0 {
		return nil, nil
	}
	what := opts.What
	if what == "" {
		what = "campaign"
	}
	budget := opts.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	pointWorkers := budget
	if pointWorkers > len(points) {
		pointWorkers = len(points)
	}
	perEngine := budget / pointWorkers
	if perEngine < 1 {
		perEngine = 1
	}
	o := opts.Obs
	if o == nil {
		// Library sweeps that set Scenario.Obs (rather than CampaignOpts.Obs)
		// still get campaign-level progress and events.
		o = points[0].Obs
	}
	o.CampaignStart(what, len(points))
	pointHist := o.Histogram("campaign.point_ns")
	out := make([]Metrics, len(points))
	perr := make([]*PointError, len(points))
	runParallelCtx(ctx, pointWorkers, len(points), func(i int) {
		sp := o.Start(pointHist)
		perr[i] = runCampaignPoint(ctx, what, i, points[i], perEngine, opts.Obs, out)
		ns := sp.End()
		if o.EmitsEvents() {
			f := map[string]any{"what": what, "point": i}
			if ns > 0 {
				f["ns"] = ns
			}
			if perr[i] != nil {
				f["failed"] = true
			}
			o.Emit("point", f)
		}
		o.CampaignPoint()
	})
	o.CampaignEnd(what)
	var failed []*PointError
	for _, pe := range perr {
		if pe != nil {
			failed = append(failed, pe)
		}
	}
	if len(failed) > 0 {
		return out, &CampaignError{Points: failed}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// runCampaignPoint executes one campaign point, converting configuration
// errors and point-level panics into a PointError. A cancelled point is not
// a failure: its partial metrics (already marked Interrupted by RunContext)
// land in out and the cancellation is reported campaign-wide instead.
func runCampaignPoint(ctx context.Context, what string, i int, scn Scenario, perEngine int, o *obs.Observer, out []Metrics) (pe *PointError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PointError{What: what, Point: i, Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	if scn.Workers == 0 {
		scn.Workers = perEngine
	}
	if scn.Obs == nil {
		scn.Obs = o
	}
	e, err := NewEngine(scn)
	if err != nil {
		return &PointError{What: what, Point: i, Err: err}
	}
	m, err := e.RunContext(ctx)
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			out[i] = m
			return nil
		}
		return &PointError{What: what, Point: i, Err: err}
	}
	out[i] = m
	return nil
}

package core

import (
	"context"
	"errors"
	"sync"

	"cbma/internal/obs"
	"cbma/internal/sim"
)

// PointResult is the serving-layer result of one campaign point: the
// metrics, where they came from, and the content key they are (or would
// be) cached under. Err is the per-point failure, if any; failed points
// carry the zero Metrics, mirroring sim.RunCampaignContext.
type PointResult struct {
	Metrics      sim.Metrics `json:"metrics"`
	Cached       bool        `json:"cached"`
	ScenarioHash string      `json:"scenario_hash"`
	Err          string      `json:"error,omitempty"`
}

// Service answers campaign requests from the cache when it can and from
// the Runner when it must. It is the layer the daemon's job front-end sits
// on: pure request/response, no transport. Cache hits are served at once;
// points that must execute wait for the Service's single execution slot,
// so one campaign at a time owns the engine's worker budget. The zero
// Service (plus a Runner) is ready to use.
type Service struct {
	// Runner executes cache misses. Required.
	Runner Runner
	// Store, when non-nil, is probed before and filled after execution.
	Store Store
	// Obs, when non-nil, counts cache traffic (serve.cache.hits,
	// serve.cache.misses, serve.cache.skipped) and point executions
	// (serve.points.executed, serve.points.failed), and times the wait
	// for the execution slot (serve.exec_wait_ns).
	Obs *obs.Observer

	slotOnce sync.Once
	slot     chan struct{} // the execution slot; made on first use
}

// Run resolves every point and returns results indexed like points. It
// probes the store first; if any point missed, it waits for the execution
// slot (giving up if ctx ends first, so a job cancelled while waiting
// never runs), probes the misses again — a duplicate of a point that was
// running meanwhile is now a hit, not a second execution — and runs what
// is still missing through the Runner as one sub-campaign sharing opts'
// worker budget. Points whose hash cannot be computed (invalid scenarios)
// fail individually without blocking the rest.
//
// The aggregate error mirrors sim.RunCampaignContext: a *sim.CampaignError
// carrying every failed point (indexed into the REQUEST's points, not the
// executed subset), or the context's error when the run was cancelled.
// Points that never ran because ctx ended first are marked Interrupted.
// Results of failed, interrupted or cancelled points are never cached;
// cached results are only ever complete, healthy metrics.
func (s *Service) Run(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]PointResult, error) {
	out := make([]PointResult, len(points))
	var missIdx []int // request indices not yet served
	for i, scn := range points {
		h, err := scn.Hash()
		if err != nil {
			out[i].Err = err.Error()
			s.Obs.Counter("serve.points.failed").Inc()
			continue
		}
		out[i].ScenarioHash = h
		missIdx = append(missIdx, i)
	}
	missIdx = s.probe(points, out, missIdx)

	var (
		failed []*sim.PointError
		runErr error
	)
	if len(missIdx) > 0 {
		wait := s.Obs.Start(s.Obs.Histogram("serve.exec_wait_ns"))
		runErr = s.acquire(ctx)
		wait.End()
		if runErr == nil {
			missIdx = s.probe(points, out, missIdx)
			failed, runErr = s.execute(ctx, points, out, missIdx, opts)
			<-s.slot
		} else {
			for _, i := range missIdx {
				out[i].Metrics.Interrupted = true
			}
		}
		s.Obs.Counter("serve.cache.misses").Add(int64(len(missIdx)))
	}

	// Hash failures count as failed points too, so the aggregate error is
	// complete; collect them in request order for a stable report.
	for i := range out {
		if out[i].Err != "" && out[i].ScenarioHash == "" {
			failed = append(failed, &sim.PointError{What: opts.What, Point: i, Err: errors.New(out[i].Err)})
		}
	}
	if len(failed) > 0 {
		sortPointErrors(failed)
		return out, &sim.CampaignError{Points: failed}
	}
	if runErr != nil {
		return out, runErr
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// acquire takes the execution slot, or returns ctx's error if ctx ends
// first (or has already ended).
func (s *Service) acquire(ctx context.Context) error {
	s.slotOnce.Do(func() { s.slot = make(chan struct{}, 1) })
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case s.slot <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// probe looks the points at idx up in the store, fills in the hits and
// returns the indices that missed (reusing idx's backing array).
func (s *Service) probe(points []sim.Scenario, out []PointResult, idx []int) []int {
	if s.Store == nil {
		return idx
	}
	miss := idx[:0]
	for _, i := range idx {
		e, ok := s.Store.Get(Key{ScenarioHash: out[i].ScenarioHash, Seed: points[i].Seed})
		if !ok {
			miss = append(miss, i)
			continue
		}
		out[i].Metrics = e.Metrics
		out[i].Cached = true
		s.Obs.Counter("serve.cache.hits").Inc()
		// Cache-served points never reach the engine, so they would be
		// invisible in the job's trace timeline; record them on the
		// point's own (per-job) observer.
		if po := points[i].Obs; po.EmitsEvents() {
			po.Emit("point_cached", map[string]any{"point": i, "hash": out[i].ScenarioHash})
		}
	}
	return miss
}

// execute runs the points at missIdx through the Runner, fills their
// results and caches the clean ones. It returns the per-point failures,
// re-indexed into the request's coordinates, and any run-wide error.
func (s *Service) execute(ctx context.Context, points []sim.Scenario, out []PointResult, missIdx []int, opts sim.CampaignOpts) ([]*sim.PointError, error) {
	if len(missIdx) == 0 {
		return nil, nil
	}
	missPts := make([]sim.Scenario, len(missIdx))
	for j, i := range missIdx {
		missPts[j] = points[i]
	}
	ms, err := s.Runner.Run(ctx, missPts, opts)
	var (
		failed []*sim.PointError
		runErr error
		cerr   *sim.CampaignError
	)
	switch {
	case errors.As(err, &cerr):
		// Re-index the per-point errors into the request's coordinates
		// and mark the failed slots before the caching loop below.
		for _, pe := range cerr.Points {
			reqIdx := missIdx[pe.Point]
			out[reqIdx].Err = pe.Err.Error()
			failed = append(failed, &sim.PointError{What: pe.What, Point: reqIdx, Err: pe.Err})
			s.Obs.Counter("serve.points.failed").Inc()
		}
	case err != nil:
		runErr = err
	}
	for j, reqIdx := range missIdx {
		if j >= len(ms) {
			break
		}
		out[reqIdx].Metrics = ms[j]
		if out[reqIdx].Err != "" {
			continue
		}
		s.Obs.Counter("serve.points.executed").Inc()
		if ms[j].Interrupted || ctx.Err() != nil {
			// A cancelled run leaves partial metrics; caching them would
			// serve truncated results as if complete.
			s.Obs.Counter("serve.cache.skipped").Inc()
			continue
		}
		if s.Store != nil {
			k := Key{ScenarioHash: out[reqIdx].ScenarioHash, Seed: missPts[j].Seed}
			s.Store.Put(k, Entry{Key: k, Metrics: ms[j]})
		}
	}
	return failed, runErr
}

// sortPointErrors orders a failure list by request index (insertion sort:
// the list is tiny and mostly ordered already).
func sortPointErrors(pes []*sim.PointError) {
	for i := 1; i < len(pes); i++ {
		for j := i; j > 0 && pes[j-1].Point > pes[j].Point; j-- {
			pes[j-1], pes[j] = pes[j], pes[j-1]
		}
	}
}

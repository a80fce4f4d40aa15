// Package batch is the daemon's job front-end: it gives each submission an
// ID, resolves it through core.Service as soon as it arrives, lets each job
// be cancelled on its own, and drains in-flight jobs on shutdown.
//
// Jobs are not coalesced. A job whose points are all cached returns
// without waiting for anything; the rest wait for core.Service's execution
// slot, which gives one campaign at a time the whole worker budget.
// Scheduling cannot affect results: each point's metrics depend only on
// its own scenario (per-point DeriveSeed streams), which is also what lets
// the core layer cache them.
package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cbma/internal/obs"
	"cbma/internal/serve/core"
	"cbma/internal/sim"
)

// Errors returned by Submit and Close.
var (
	ErrClosed    = errors.New("batch: batcher is closed")
	ErrNoPoints  = errors.New("batch: submission has no points")
	ErrDrainTime = errors.New("batch: drain deadline exceeded")
)

// Config parameterizes New.
type Config struct {
	// Service resolves each job (cache probe, execution slot, campaign
	// run). Required.
	Service *core.Service
	// Workers is the engine worker budget an executing job spreads over
	// its points (sim.CampaignOpts.Workers). Zero selects GOMAXPROCS.
	Workers int
	// Obs, when non-nil, receives job lifecycle events (job_submitted,
	// job_done) and is the observer each job's campaign runs under.
	Obs *obs.Observer
}

// Request is one submission: a set of campaign points that must complete
// together.
type Request struct {
	// What labels the submission in errors and telemetry.
	What string
	// Points are the campaign points to run.
	Points []sim.Scenario
}

// Job is an accepted submission.
type Job struct {
	id      string
	done    chan struct{}
	results []core.PointResult
	err     error
}

// ID returns the batcher-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job's results are ready.
func (j *Job) Done() <-chan struct{} { return j.done }

// Results blocks until the job completes and returns its per-point
// results and error, exactly as core.Service.Run reported them; a job
// cancelled before its points ran returns its context's error.
func (j *Job) Results() ([]core.PointResult, error) {
	<-j.done
	return j.results, j.err
}

// Batcher runs each submission through a core.Service as it arrives.
type Batcher struct {
	cfg Config
	// base bounds every job to the batcher's lifetime; Close cancels it to
	// cut off in-flight campaigns at the drain deadline.
	base context.Context //cbma:allow ctxflow batcher-lifetime root, audited seam
	stop context.CancelFunc

	mu      sync.Mutex
	nextJob int
	closed  bool
	wg      sync.WaitGroup
}

// New starts a batcher. Close must be called to drain it.
func New(cfg Config) *Batcher {
	//cbma:allow ctxflow batcher-lifetime root: New has no caller ctx by design, Close bounds the drain
	base, stop := context.WithCancel(context.Background())
	return &Batcher{cfg: cfg, base: base, stop: stop}
}

// Submit accepts a request and starts resolving it at once. The returned
// Job completes asynchronously; cancelling ctx cancels the job (one still
// waiting for the execution slot never runs; a running one is interrupted
// and returns Interrupted partials, which are never cached).
func (b *Batcher) Submit(ctx context.Context, req Request) (*Job, error) {
	if len(req.Points) == 0 {
		return nil, ErrNoPoints
	}
	if ctx == nil {
		ctx = context.Background() //cbma:allow ctxflow nil-ctx default for tests; real callers pass one
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.nextJob++
	j := &Job{id: fmt.Sprintf("job-%d", b.nextJob), done: make(chan struct{})}
	b.wg.Add(1)
	b.mu.Unlock()
	if b.cfg.Obs.EmitsEvents() {
		b.cfg.Obs.Emit("job_submitted", map[string]any{"job": j.id, "points": len(req.Points)})
	}
	go b.run(ctx, j, req)
	return j, nil
}

// run resolves one job under a context that ends with either the job's
// own ctx or the batcher's lifetime.
func (b *Batcher) run(ctx context.Context, j *Job, req Request) {
	defer b.wg.Done()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(b.base, cancel)()
	what := req.What
	if what == "" {
		what = j.id
	}
	j.results, j.err = b.cfg.Service.Run(ctx, req.Points, sim.CampaignOpts{
		Workers: b.cfg.Workers,
		What:    what,
		Obs:     b.cfg.Obs,
	})
	close(j.done)
	if o := b.cfg.Obs; o.EmitsEvents() {
		f := map[string]any{"job": j.id}
		if j.err != nil {
			f["error"] = j.err.Error()
		}
		cached := 0
		for _, r := range j.results {
			if r.Cached {
				cached++
			}
		}
		f["cached"] = cached
		o.Emit("job_done", f)
	}
}

// Close drains the batcher: no new submissions are accepted, and Close
// waits — up to ctx — for in-flight jobs to finish. Jobs still waiting for
// the execution slot run during the drain; only the deadline cuts them off
// (they then complete with the batcher's cancelled context, surfacing
// partial metrics the way SIGINT does for the CLI).
func (b *Batcher) Close(ctx context.Context) error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()

	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		b.stop()
		return nil
	case <-ctx.Done():
		// Cancel in-flight campaigns and wait for them to unwind; they
		// finish promptly with Interrupted partials.
		b.stop()
		<-done
		return ErrDrainTime
	}
}

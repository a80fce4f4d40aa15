package batch

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbma/internal/leaktest"
	"cbma/internal/obs"
	"cbma/internal/serve/core"
	"cbma/internal/sim"
)

// fakeRunner returns canned per-point metrics, recording each call's
// seeds so tests can count executions. With block set, each call first
// signals entered (when set) and then waits for block or cancellation.
type fakeRunner struct {
	mu      sync.Mutex
	calls   [][]int // per call: seeds of the executed points
	block   chan struct{}
	entered chan struct{}
	failAt  map[int64]bool // seeds that fail
}

func (f *fakeRunner) Run(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error) {
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
		}
	}
	seeds := make([]int, len(points))
	ms := make([]sim.Metrics, len(points))
	var failed []*sim.PointError
	for i, p := range points {
		seeds[i] = int(p.Seed)
		if f.failAt[p.Seed] {
			failed = append(failed, &sim.PointError{What: opts.What, Point: i, Err: errors.New("injected")})
			continue
		}
		ms[i] = sim.Metrics{NumTags: p.NumTags, FramesSent: int(p.Seed)}
	}
	f.mu.Lock()
	f.calls = append(f.calls, seeds)
	f.mu.Unlock()
	if len(failed) > 0 {
		return ms, &sim.CampaignError{Points: failed}
	}
	if err := ctx.Err(); err != nil {
		for i := range ms {
			ms[i].Interrupted = true
		}
		return ms, err
	}
	return ms, nil
}

func (f *fakeRunner) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func point(seed int64) sim.Scenario {
	scn := sim.DefaultScenario()
	scn.Seed = seed
	scn.Packets = 10
	return scn
}

func newBatcher(t *testing.T, runner core.Runner, cfg Config) *Batcher {
	t.Helper()
	if cfg.Service == nil {
		cfg.Service = &core.Service{Runner: runner, Obs: obs.New(obs.Config{})}
	}
	b := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = b.Close(ctx)
	})
	return b
}

// One job's failing point must not contaminate another job: the
// healthy job completes clean, the failing one gets a job-local
// CampaignError with job-local indices.
func TestBatcherIsolatesJobFailures(t *testing.T) {
	runner := &fakeRunner{failAt: map[int64]bool{30: true}}
	b := newBatcher(t, runner, Config{})

	healthy, _ := b.Submit(context.Background(), Request{What: "healthy", Points: []sim.Scenario{point(1), point(2)}})
	failing, _ := b.Submit(context.Background(), Request{What: "failing", Points: []sim.Scenario{point(20), point(30)}})

	if _, err := healthy.Results(); err != nil {
		t.Errorf("healthy job failed: %v", err)
	}
	res, err := failing.Results()
	var cerr *sim.CampaignError
	if !errors.As(err, &cerr) {
		t.Fatalf("failing job err = %v, want *sim.CampaignError", err)
	}
	if len(cerr.Points) != 1 || cerr.Points[0].Point != 1 {
		t.Errorf("failure = %+v, want job-local point 1", cerr.Points)
	}
	if res[0].Err != "" || res[1].Err == "" {
		t.Errorf("per-point errors misrouted: %+v", res)
	}
}

// A job cancelled while it waits for the execution slot never executes;
// the job holding the slot completes.
func TestBatcherCancelledJobSkipped(t *testing.T) {
	release := make(chan struct{})
	runner := &fakeRunner{block: release}
	b := newBatcher(t, runner, Config{})

	// Occupy the execution slot so the next job has to wait for it.
	blocker, err := b.Submit(context.Background(), Request{Points: []sim.Scenario{point(1)}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := b.Submit(ctx, Request{Points: []sim.Scenario{point(2)}})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)

	if _, err := blocker.Results(); err != nil {
		t.Errorf("blocker failed: %v", err)
	}
	if _, err := doomed.Results(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled job err = %v, want context.Canceled", err)
	}
	// Only the blocker's point may have executed.
	for _, call := range runner.calls {
		for _, seed := range call {
			if seed == 2 {
				t.Error("cancelled job's point executed anyway")
			}
		}
	}
}

// Close drains: in-flight work completes, then submissions are refused.
func TestBatcherCloseDrains(t *testing.T) {
	runner := &fakeRunner{}
	o := obs.New(obs.Config{})
	b := New(Config{
		Service: &core.Service{Runner: runner, Obs: o},
		Obs:     o,
	})
	j, err := b.Submit(context.Background(), Request{Points: []sim.Scenario{point(1)}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Close(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("Close returned before the drained job completed")
	}
	if _, err := j.Results(); err != nil {
		t.Errorf("drained job failed: %v", err)
	}
	if _, err := b.Submit(context.Background(), Request{Points: []sim.Scenario{point(2)}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

// A drain that overruns its deadline cancels in-flight work and still
// unwinds: jobs complete (with the cancellation surfaced), Close reports
// ErrDrainTime.
func TestBatcherCloseDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	runner := &fakeRunner{block: release}
	b := New(Config{
		Service: &core.Service{Runner: runner, Obs: obs.New(obs.Config{})},
	})
	j, err := b.Submit(context.Background(), Request{Points: []sim.Scenario{point(1)}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := b.Close(ctx); !errors.Is(err, ErrDrainTime) {
		t.Fatalf("Close = %v, want ErrDrainTime", err)
	}
	if _, err := j.Results(); !errors.Is(err, context.Canceled) {
		t.Errorf("job err after deadline drain = %v, want context.Canceled", err)
	}
}

// An empty submission is refused up front.
func TestBatcherRejectsEmpty(t *testing.T) {
	b := newBatcher(t, &fakeRunner{}, Config{})
	if _, err := b.Submit(context.Background(), Request{}); !errors.Is(err, ErrNoPoints) {
		t.Errorf("Submit(no points) = %v, want ErrNoPoints", err)
	}
}

// Concurrent submitters all complete with their own results — the
// routing survives the race detector.
func TestBatcherConcurrentSubmitters(t *testing.T) {
	runner := &fakeRunner{}
	b := newBatcher(t, runner, Config{})
	var wg sync.WaitGroup
	var bad atomic.Int64
	for seed := int64(1); seed <= 40; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			j, err := b.Submit(context.Background(), Request{Points: []sim.Scenario{point(seed)}})
			if err != nil {
				bad.Add(1)
				return
			}
			res, err := j.Results()
			if err != nil || len(res) != 1 || res[0].Metrics.FramesSent != int(seed) {
				bad.Add(1)
			}
		}(seed)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d submitters got wrong results", n)
	}
}

// cachedService is a Service over a memory store, with point(seed)
// already cached for each seed in warm.
func cachedService(t *testing.T, runner core.Runner, warm ...int64) *core.Service {
	t.Helper()
	store := core.NewMemoryStore(0)
	for _, seed := range warm {
		p := point(seed)
		h, err := p.Hash()
		if err != nil {
			t.Fatal(err)
		}
		k := core.Key{ScenarioHash: h, Seed: seed}
		store.Put(k, core.Entry{Key: k, Metrics: sim.Metrics{FramesSent: int(seed)}})
	}
	return &core.Service{Runner: runner, Store: store, Obs: obs.New(obs.Config{})}
}

// A job whose points are all cached returns while another job's run holds
// the execution slot: cache hits never queue behind execution.
func TestBatcherWarmJobSkipsBusyRunner(t *testing.T) {
	release := make(chan struct{})
	runner := &fakeRunner{block: release, entered: make(chan struct{}, 1)}
	b := newBatcher(t, runner, Config{Service: cachedService(t, runner, 1)})
	defer close(release)

	cold, err := b.Submit(context.Background(), Request{Points: []sim.Scenario{point(2)}})
	if err != nil {
		t.Fatal(err)
	}
	<-runner.entered // the cold job now holds the slot
	warm, err := b.Submit(context.Background(), Request{Points: []sim.Scenario{point(1)}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-warm.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("warm job waited for the busy runner")
	}
	res, err := warm.Results()
	if err != nil || len(res) != 1 || !res[0].Cached || res[0].Metrics.FramesSent != 1 {
		t.Errorf("warm job = %+v, %v; want one cached point", res, err)
	}
	select {
	case <-cold.Done():
		t.Error("cold job finished before its runner was released")
	default:
	}
}

// A resubmission that arrives while its point is running waits for the
// slot, finds the point cached on its second probe and is not run again.
func TestBatcherResubmissionWhileRunningNotRerun(t *testing.T) {
	release := make(chan struct{})
	// Room for a second, wrong, Runner call, so it fails the count below
	// instead of blocking.
	runner := &fakeRunner{block: release, entered: make(chan struct{}, 2)}
	o := obs.New(obs.Config{})
	svc := cachedService(t, runner)
	svc.Obs = o
	b := newBatcher(t, runner, Config{Service: svc})

	first, err := b.Submit(context.Background(), Request{Points: []sim.Scenario{point(5)}})
	if err != nil {
		t.Fatal(err)
	}
	<-runner.entered
	second, err := b.Submit(context.Background(), Request{Points: []sim.Scenario{point(5)}})
	if err != nil {
		t.Fatal(err)
	}
	// Release the runner only once the resubmission has missed the cache
	// and is waiting for the slot.
	deadline := time.Now().Add(5 * time.Second)
	for leaktest.Count("cbma/internal/serve/core.(*Service).acquire") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("resubmission never waited for the execution slot")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	r1, err1 := first.Results()
	r2, err2 := second.Results()
	if err1 != nil || err2 != nil {
		t.Fatalf("job errors: %v, %v", err1, err2)
	}
	if got := runner.callCount(); got != 1 {
		t.Errorf("runner ran %d times, want 1", got)
	}
	if r1[0].Cached || !r2[0].Cached {
		t.Errorf("cached = %v, %v; want false, true", r1[0].Cached, r2[0].Cached)
	}
	if !reflect.DeepEqual(r2[0].Metrics, r1[0].Metrics) {
		t.Errorf("resubmission metrics %+v differ from the run's %+v", r2[0].Metrics, r1[0].Metrics)
	}
	if got := o.Counter("serve.cache.hits").Value(); got != 1 {
		t.Errorf("serve.cache.hits = %d, want 1", got)
	}
	if got := o.Counter("serve.cache.misses").Value(); got != 1 {
		t.Errorf("serve.cache.misses = %d, want 1", got)
	}
}

package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"cbma/internal/fault"
	"cbma/internal/obs"
	"cbma/internal/serve/core"
	"cbma/internal/sim"
)

// campaignPoints builds the reference campaign: quick scenarios varying
// tag count and seed, including a fault-injected profile (the faulted
// equivalence case) and one invalid point (isolation case).
func campaignPoints(t *testing.T, withInvalid bool) []sim.Scenario {
	t.Helper()
	var points []sim.Scenario
	for i := 0; i < 5; i++ {
		scn := sim.DefaultScenario()
		scn.Seed = sim.DeriveSeed(1, 9999, uint64(i))
		scn.NumTags = 2 + i%2
		scn.Packets = 16
		scn.PayloadBytes = 8
		if i == 3 {
			scn.Fault = &fault.Profile{PanicProb: 0.2, TransientErrProb: 0.2, AckLossProb: 0.3}
		}
		points = append(points, scn)
	}
	if withInvalid {
		bad := sim.DefaultScenario()
		bad.NumTags = -1
		points = append(points, bad)
	}
	return points
}

// metricsEqualJSON is the bit-identity check: the canonical serialized
// form (what the cache, the journal and the wire all carry) must match
// byte for byte.
func metricsEqualJSON(t *testing.T, want, got []sim.Metrics) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("length mismatch: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		wb, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(wb) != string(gb) {
			t.Errorf("point %d metrics differ:\nwant %s\ngot  %s", i, wb, gb)
		}
	}
}

// failedPoints extracts the failing indices from a campaign error.
func failedPoints(t *testing.T, err error) map[int]bool {
	t.Helper()
	out := map[int]bool{}
	if err == nil {
		return out
	}
	var ce *sim.CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *sim.CampaignError: %v", err)
	}
	for _, pe := range ce.Points {
		out[pe.Point] = true
	}
	return out
}

// indexCountingRunner counts executions per scenario hash, so resume tests
// can prove a committed point never re-executes.
type indexCountingRunner struct {
	inner core.Runner

	mu     sync.Mutex
	counts map[string]int
}

func newIndexCountingRunner() *indexCountingRunner {
	return &indexCountingRunner{inner: core.CampaignRunner{}, counts: map[string]int{}}
}

func (r *indexCountingRunner) Run(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error) {
	for i := range points {
		h, err := points[i].Hash()
		if err != nil {
			h = "invalid"
		}
		r.mu.Lock()
		r.counts[h]++
		r.mu.Unlock()
	}
	return r.inner.Run(ctx, points, opts)
}

func (r *indexCountingRunner) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.counts {
		n += c
	}
	return n
}

// TestCampaignShardedEquivalence is the tentpole contract: the sharded
// coordinator's Metrics are bit-identical to single-process
// sim.RunCampaign at 1, 2 and 4 shard workers — including a fault-
// injected profile point and a failing point — and the error shape
// (failing indices) matches too.
func TestCampaignShardedEquivalence(t *testing.T) {
	points := campaignPoints(t, true)
	want, wantErr := sim.RunCampaign(points, sim.CampaignOpts{Workers: 2, What: "reference"})
	wantFailed := failedPoints(t, wantErr)

	for _, shards := range []int{1, 2, 4} {
		c := New(Config{Shards: shards, Backoff: time.Millisecond})
		got, gotErr := c.Run(context.Background(), points, sim.CampaignOpts{Workers: 2, What: "reference"})
		metricsEqualJSON(t, want, got)
		// In-process sharding never serializes results, so the stronger
		// structural identity must hold as well.
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("shards=%d point %d: DeepEqual mismatch", shards, i)
			}
		}
		if gotFailed := failedPoints(t, gotErr); !reflect.DeepEqual(wantFailed, gotFailed) {
			t.Errorf("shards=%d failed points %v, want %v", shards, gotFailed, wantFailed)
		}

		// Telemetry must be provably off the result path: the same run with
		// a full observer (ticking clock, event sink, trace propagation,
		// per-shard stats) produces byte-identical metrics and failures.
		var events bytes.Buffer
		snk := obs.NewSink(&events, 0)
		o := obs.New(obs.Config{Clock: obs.SystemClock(), Sink: snk})
		co := New(Config{Shards: shards, Backoff: time.Millisecond, Obs: o})
		got2, gotErr2 := co.Run(context.Background(), points, sim.CampaignOpts{Workers: 2, What: "reference"})
		if err := snk.Close(); err != nil {
			t.Fatal(err)
		}
		metricsEqualJSON(t, want, got2)
		if gotFailed := failedPoints(t, gotErr2); !reflect.DeepEqual(wantFailed, gotFailed) {
			t.Errorf("shards=%d telemetry-on failed points %v, want %v", shards, gotFailed, wantFailed)
		}
		if o.TraceID() == "" {
			t.Errorf("shards=%d: coordinator did not mint a trace ID", shards)
		}
		if events.Len() == 0 {
			t.Errorf("shards=%d: telemetry-on run emitted no events; the equivalence check is vacuous", shards)
		}
	}
}

// TestShardBreakdownSumsToCommitted pins the manifest invariant the CI
// smoke asserts with jq: per-shard telemetry point counts sum exactly to
// this run's committed-point counter, on a fresh run and on a journal
// resume (restored points never count toward any shard's row).
func TestShardBreakdownSumsToCommitted(t *testing.T) {
	points := campaignPoints(t, false)
	dir := t.TempDir()
	const interruptAfter = 2

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o1 := obs.New(obs.Config{Clock: obs.SystemClock()})
	c1 := New(Config{
		Shards:      2,
		Parallel:    1,
		Transport:   &cancelAfterTransport{inner: Local{}, after: interruptAfter, cancel: cancel},
		JournalRoot: dir,
		Backoff:     time.Millisecond,
		Obs:         o1,
	})
	if _, err := c1.Run(ctx, points, sim.CampaignOpts{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	checkBreakdown(t, "interrupted", o1)

	o2 := obs.New(obs.Config{Clock: obs.SystemClock()})
	c2 := New(Config{Shards: 2, Transport: Local{}, JournalRoot: dir, Backoff: time.Millisecond, Obs: o2})
	if _, err := c2.Run(context.Background(), points, sim.CampaignOpts{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	checkBreakdown(t, "resumed", o2)
	sum := int64(0)
	for _, row := range o2.Shards().Breakdown() {
		sum += row.Points
	}
	if want := int64(len(points) - interruptAfter); sum != want {
		t.Errorf("resumed run breakdown sums to %d, want %d (restored points must not count)", sum, want)
	}
	man := o2.Manifest("test")
	if man.TraceID == "" {
		t.Error("manifest missing trace_id")
	}
	if len(man.ShardBreakdown) == 0 || man.WorkerRegistry == nil {
		t.Errorf("manifest missing shard breakdown (%d rows) or worker registry (%v)",
			len(man.ShardBreakdown), man.WorkerRegistry)
	}
}

// checkBreakdown asserts sum(breakdown points) == shard.points.committed.
func checkBreakdown(t *testing.T, label string, o *obs.Observer) {
	t.Helper()
	var sum int64
	for _, row := range o.Shards().Breakdown() {
		sum += row.Points
	}
	if committed := o.Counter("shard.points.committed").Value(); sum != committed {
		t.Errorf("%s: breakdown sums to %d, committed counter = %d", label, sum, committed)
	}
}

// TestCampaignShardedEquivalenceChaos: with the worker-fault chaos
// profile injecting crashes, stalls and corrupt replies, the campaign
// still completes with bit-identical metrics — degraded (retries,
// timeouts) but correct, mirroring the engine's round-quarantine
// contract at campaign scale.
func TestCampaignShardedEquivalenceChaos(t *testing.T) {
	points := campaignPoints(t, false)
	want, err := sim.RunCampaign(points, sim.CampaignOpts{Workers: 2, What: "chaos"})
	if err != nil {
		t.Fatal(err)
	}

	// Full telemetry (ticking clock + event sink): chaos-degraded execution
	// with the observer on must still match the single-process reference.
	var events bytes.Buffer
	snk := obs.NewSink(&events, 0)
	t.Cleanup(func() { _ = snk.Close() })
	o := obs.New(obs.Config{Clock: obs.SystemClock(), Sink: snk})
	c := New(Config{
		Shards:           4,
		Transport:        Local{},
		WorkerFaults:     &fault.WorkerProfile{Seed: 42, CrashProb: 0.5, StallProb: 0.3, CorruptProb: 0.3},
		HeartbeatTimeout: time.Second,
		Backoff:          time.Millisecond,
		MaxAttempts:      10,
		Obs:              o,
	})
	got, gotErr := c.Run(context.Background(), points, sim.CampaignOpts{Workers: 2, What: "chaos"})
	if gotErr != nil {
		t.Fatalf("chaos campaign failed: %v", gotErr)
	}
	metricsEqualJSON(t, want, got)
	faults := o.Counter("shard.retries").Value() + o.Counter("shard.heartbeat_timeouts").Value() +
		o.Counter("shard.corrupt_replies").Value()
	if faults == 0 {
		t.Error("chaos profile injected nothing (retries+timeouts+corruptions all zero); the test is vacuous")
	}
	t.Logf("chaos: retries=%d timeouts=%d corrupt=%d",
		o.Counter("shard.retries").Value(), o.Counter("shard.heartbeat_timeouts").Value(),
		o.Counter("shard.corrupt_replies").Value())
}

// TestShardedStallReassignment: a range whose worker stalls on its first
// attempt is cancelled by the heartbeat monitor and reassigned; the
// campaign completes with identical results.
func TestShardedStallReassignment(t *testing.T) {
	points := campaignPoints(t, false)
	want, err := sim.RunCampaign(points, sim.CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a fault seed whose schedule stalls shard 0 attempt 0 and
	// nothing else — deterministic, since plans are pure functions.
	profile := fault.WorkerProfile{StallProb: 0.45}
	seed := int64(-1)
	for s := int64(0); s < 512; s++ {
		p := profile
		p.Seed = s
		in := fault.NewWorkerInjector(p)
		// Only three pairs are ever dispatched under this schedule:
		// shard 0 stalls once then succeeds, shard 1 succeeds first try.
		if in.Plan(0, 0).Stall && !in.Plan(0, 1).Fires() && !in.Plan(1, 0).Fires() {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no fault seed produces the stall-once schedule")
	}
	profile.Seed = seed

	o := obs.New(obs.Config{})
	c := New(Config{
		Shards:           2,
		WorkerFaults:     &profile,
		HeartbeatTimeout: time.Second,
		Backoff:          time.Millisecond,
		Obs:              o,
	})
	got, gotErr := c.Run(context.Background(), points, sim.CampaignOpts{Workers: 2})
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	metricsEqualJSON(t, want, got)
	if n := o.Counter("shard.heartbeat_timeouts").Value(); n != 1 {
		t.Errorf("heartbeat timeouts = %d, want 1", n)
	}
	if n := o.Counter("shard.retries").Value(); n != 1 {
		t.Errorf("retries = %d, want 1", n)
	}
}

// TestShardedQuarantine: a transport that always fails without progress
// exhausts the retry budget; the affected points fail with ErrQuarantined
// (typed, campaign completes) rather than hanging or crashing.
func TestShardedQuarantine(t *testing.T) {
	points := campaignPoints(t, false)
	o := obs.New(obs.Config{})
	c := New(Config{
		Shards:      2,
		Transport:   failingTransport{},
		Backoff:     time.Millisecond,
		MaxAttempts: 3,
		Obs:         o,
	})
	got, err := c.Run(context.Background(), points, sim.CampaignOpts{})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("error %v, want ErrQuarantined", err)
	}
	failed := failedPoints(t, err)
	if len(failed) != len(points) {
		t.Errorf("%d failed points, want all %d", len(failed), len(points))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], sim.Metrics{}) {
			t.Errorf("quarantined point %d has non-zero metrics", i)
		}
	}
	if n := o.Counter("shard.points.quarantined").Value(); n != int64(len(points)) {
		t.Errorf("quarantined counter = %d, want %d", n, len(points))
	}
}

type failingTransport struct{}

func (failingTransport) Execute(ctx context.Context, a Assignment, sink Sink) error {
	return errors.New("boom")
}

// TestShardedResumeAfterInterrupt is the resume contract end to end: a
// campaign interrupted after k committed points resumes from its journal
// and finishes with bit-identical metrics, executing each point EXACTLY
// once across both runs (the journal prevents committed-point
// re-execution, proven by per-point execution counters) — and a third,
// fully-resumed run executes nothing at all (double-resume idempotence).
func TestShardedResumeAfterInterrupt(t *testing.T) {
	points := campaignPoints(t, false)
	want, err := sim.RunCampaign(points, sim.CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const interruptAfter = 2

	// Run 1: cancel the campaign right after the k-th point commits.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run1 := newIndexCountingRunner()
	c1 := New(Config{
		Shards:      2,
		Parallel:    1, // sequential dispatch: the interrupt point is exact
		Transport:   &cancelAfterTransport{inner: Local{Runner: run1}, after: interruptAfter, cancel: cancel},
		JournalRoot: dir,
		Backoff:     time.Millisecond,
	})
	_, err1 := c1.Run(ctx, points, sim.CampaignOpts{Workers: 2})
	if !errors.Is(err1, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err1)
	}
	if got := run1.total(); got != interruptAfter {
		t.Fatalf("run 1 executed %d points, want exactly %d", got, interruptAfter)
	}

	// Run 2: a fresh coordinator (simulating a process restart) resumes.
	o2 := obs.New(obs.Config{})
	run2 := newIndexCountingRunner()
	c2 := New(Config{
		Shards:      2,
		Transport:   Local{Runner: run2},
		JournalRoot: dir,
		Backoff:     time.Millisecond,
		Obs:         o2,
	})
	got, err2 := c2.Run(context.Background(), points, sim.CampaignOpts{Workers: 2})
	if err2 != nil {
		t.Fatal(err2)
	}
	metricsEqualJSON(t, want, got)
	if n := o2.Counter("shard.points.restored").Value(); n != interruptAfter {
		t.Errorf("run 2 restored %d points from the journal, want %d", n, interruptAfter)
	}
	if gotN := run2.total(); gotN != len(points)-interruptAfter {
		t.Errorf("run 2 executed %d points, want %d", gotN, len(points)-interruptAfter)
	}
	// The heart of the criterion: no point executed twice across runs.
	seen := map[string]int{}
	for h, n := range run1.counts {
		seen[h] += n
	}
	for h, n := range run2.counts {
		seen[h] += n
	}
	for h, n := range seen {
		if n != 1 {
			t.Errorf("point %s executed %d times across interrupt+resume, want 1", h, n)
		}
	}

	// Run 3: double resume — everything restored, nothing executed.
	run3 := newIndexCountingRunner()
	c3 := New(Config{Shards: 4, Transport: Local{Runner: run3}, JournalRoot: dir})
	again, err3 := c3.Run(context.Background(), points, sim.CampaignOpts{Workers: 2})
	if err3 != nil {
		t.Fatal(err3)
	}
	metricsEqualJSON(t, want, again)
	if n := run3.total(); n != 0 {
		t.Errorf("double resume executed %d points, want 0", n)
	}
}

// cancelAfterTransport cancels the campaign context immediately after the
// n-th successful delivery — a deterministic SIGINT.
type cancelAfterTransport struct {
	inner  Transport
	after  int
	cancel context.CancelFunc

	mu        sync.Mutex
	delivered int
}

func (ct *cancelAfterTransport) Execute(ctx context.Context, a Assignment, sink Sink) error {
	return ct.inner.Execute(ctx, a, &cancelAfterSink{Sink: sink, ct: ct})
}

type cancelAfterSink struct {
	Sink
	ct *cancelAfterTransport
}

func (s *cancelAfterSink) Deliver(r PointResult) error {
	err := s.Sink.Deliver(r)
	s.ct.mu.Lock()
	s.ct.delivered++
	hit := s.ct.delivered == s.ct.after
	s.ct.mu.Unlock()
	if hit {
		s.ct.cancel()
	}
	return err
}

// TestPartitionDeterministic: the range cut is stable (resume
// re-partitions identically) and covers every index exactly once.
func TestPartitionDeterministic(t *testing.T) {
	pending := []int{0, 1, 2, 4, 7, 8, 9}
	for _, shards := range []int{1, 2, 3, 7, 12} {
		a := partition(pending, shards)
		b := partition(pending, shards)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("partition(%d) unstable", shards)
		}
		var flat []int
		for _, r := range a {
			if len(r) == 0 {
				t.Errorf("partition(%d) produced an empty range", shards)
			}
			flat = append(flat, r...)
		}
		if !reflect.DeepEqual(flat, pending) {
			t.Errorf("partition(%d) = %v, does not cover %v in order", shards, a, pending)
		}
	}
}

// TestCoordinatorIsRunner pins the seam: the coordinator must keep
// satisfying core.Runner so cbmad can slot it in for CampaignRunner.
func TestCoordinatorIsRunner(t *testing.T) {
	var _ core.Runner = New(Config{})
}

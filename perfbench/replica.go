package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"cbma/internal/obs"
	"cbma/internal/serve/batch"
	"cbma/internal/serve/core"
	"cbma/internal/serve/shard"
	"cbma/internal/sim"
)

// timedStore is a core.Store decorator timing every probe and fill, and
// remembering when each key was probed (the start of the Service.Run that
// served it, which ends a job's queue wait).
type timedStore struct {
	inner core.Store

	mu         sync.Mutex
	gets, puts []float64 // ns
	getAt      map[string][]time.Time
}

func (s *timedStore) Get(k core.Key) (core.Entry, bool) {
	t0 := time.Now()
	e, ok := s.inner.Get(k)
	ns := float64(time.Since(t0).Nanoseconds())
	s.mu.Lock()
	s.gets = append(s.gets, ns)
	s.getAt[k.ID()] = append(s.getAt[k.ID()], t0)
	s.mu.Unlock()
	return e, ok
}

func (s *timedStore) Put(k core.Key, e core.Entry) {
	t0 := time.Now()
	s.inner.Put(k, e)
	ns := float64(time.Since(t0).Nanoseconds())
	s.mu.Lock()
	s.puts = append(s.puts, ns)
	s.mu.Unlock()
}

// firstGetAfter returns the first probe of k at or after t.
func (s *timedStore) firstGetAfter(k core.Key, t time.Time) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, at := range s.getAt[k.ID()] {
		if !at.Before(t) {
			return at, true
		}
	}
	return time.Time{}, false
}

// timedRunner is a core.Runner decorator accumulating busy time.
type timedRunner struct {
	inner core.Runner

	mu    sync.Mutex
	busy  time.Duration
	calls int
}

func (r *timedRunner) Run(ctx context.Context, pts []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error) {
	t0 := time.Now()
	ms, err := r.inner.Run(ctx, pts, opts)
	d := time.Since(t0)
	r.mu.Lock()
	r.busy += d
	r.calls++
	r.mu.Unlock()
	return ms, err
}

// timedTransport is a shard.Transport decorator timing each attempt: from
// dispatch to the worker's first beat or result (spawn), the whole attempt,
// and the attempt minus the compute time its results report (wire).
type timedTransport struct {
	inner shard.Transport

	mu                   sync.Mutex
	spawn, attempt, wire []float64 // ms
}

func (t *timedTransport) Execute(ctx context.Context, a shard.Assignment, sink shard.Sink) error {
	ts := &timedSink{Sink: sink, start: time.Now()}
	err := t.inner.Execute(ctx, a, ts)
	total := time.Since(ts.start)
	ts.mu.Lock()
	first, compute := ts.first, ts.computeNs
	ts.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !first.IsZero() {
		t.spawn = append(t.spawn, float64(first.Sub(ts.start))/1e6)
	}
	t.attempt = append(t.attempt, float64(total)/1e6)
	t.wire = append(t.wire, float64(total.Nanoseconds()-compute)/1e6)
	return err
}

// timedSink passes a shard attempt's output through, noting the first
// sign of life and the reported compute time.
type timedSink struct {
	shard.Sink
	start time.Time

	mu        sync.Mutex
	first     time.Time
	computeNs int64
}

func (s *timedSink) mark(computeNs int64) {
	s.mu.Lock()
	if s.first.IsZero() {
		s.first = time.Now()
	}
	s.computeNs += computeNs
	s.mu.Unlock()
}

func (s *timedSink) Beat() {
	s.mark(0)
	s.Sink.Beat()
}

func (s *timedSink) Deliver(r shard.PointResult) error {
	s.mark(r.ElapsedNs)
	return s.Sink.Deliver(r)
}

// replicaRun is the in-process replica's outcome.
type replicaRun struct {
	recs      []jobRecord
	late      []float64
	store     *timedStore
	runner    *timedRunner
	transport *timedTransport
	obs       *obs.Observer
}

// runReplica feeds the job stream, open loop, to an in-process copy of
// cbmad's stack — batch.Batcher over core.Service with the same defaults —
// whose Store, Runner and (sharded) Transport are timing decorators.
func runReplica(cfg runConfig, sharded bool, jobs []plannedJob) (*replicaRun, error) {
	rep := &replicaRun{
		recs:   make([]jobRecord, len(jobs)),
		store:  &timedStore{inner: core.NewMemoryStore(core.DefaultMemoryEntries), getAt: map[string][]time.Time{}},
		obs:    obs.New(obs.Config{Clock: obs.SystemClock()}),
		runner: &timedRunner{inner: core.CampaignRunner{}},
	}
	if sharded {
		sub, err := shard.NewSubprocess(shard.SubprocessConfig{
			Argv: []string{cfg.Cbmad, "-shard-worker"}, Stderr: io.Discard,
		})
		if err != nil {
			return nil, err
		}
		rep.transport = &timedTransport{inner: sub}
		rep.runner.inner = shard.New(shard.Config{
			Shards:      2,
			Transport:   rep.transport,
			JournalRoot: filepath.Join(cfg.Work, "replica-journal"),
			Obs:         rep.obs,
		})
	}
	b := batch.New(batch.Config{
		Service: &core.Service{Runner: rep.runner, Store: rep.store, Obs: rep.obs},
		Obs:     rep.obs,
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	rep.late = openLoop(jobs, time.Now(), func(i int, due time.Time) {
		r := &rep.recs[i]
		r.Due = due
		job, err := b.Submit(ctx, batch.Request{What: "perfbench replica", Points: append([]sim.Scenario(nil), jobs[i].Points...)})
		if err != nil {
			r.Status, r.Err, r.Done = "failed", err.Error(), time.Now()
			return
		}
		r.ID = job.ID()
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, err := job.Results()
			r.Done = time.Now()
			r.Status = "done"
			if err != nil {
				r.Status, r.Err = "failed", err.Error()
			}
			for _, pr := range results {
				raw, merr := json.Marshal(pr.Metrics)
				if merr != nil {
					r.Status, r.Err = "failed", merr.Error()
				}
				r.Results = append(r.Results, servedPoint{Metrics: raw, Cached: pr.Cached, ScenarioHash: pr.ScenarioHash, Err: pr.Err})
			}
		}()
	})
	wg.Wait()
	cctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := b.Close(cctx); err != nil {
		return nil, fmt.Errorf("closing replica batcher: %w", err)
	}
	return rep, nil
}

// coldJobs counts the cold jobs the replica completed.
func (rep *replicaRun) coldJobs(jobs []plannedJob) int {
	n := 0
	for i, r := range rep.recs {
		if r.Status == "done" && !jobs[i].Warm {
			n++
		}
	}
	return n
}

func hasHistogram(s obs.Snapshot, name string) bool {
	for _, h := range s.Histograms {
		if h.Name == name && h.Count > 0 {
			return true
		}
	}
	return false
}

// queueWaits returns each job's wait from its due time until the batch
// that served it started probing the cache (Service.Run's start), in ms.
func (rep *replicaRun) queueWaits(jobs []plannedJob) []float64 {
	var out []float64
	for i, r := range rep.recs {
		if r.Status != "done" {
			continue
		}
		p := jobs[i].Points[0]
		h, err := p.Hash()
		if err != nil {
			continue
		}
		if at, ok := rep.store.firstGetAfter(core.Key{ScenarioHash: h, Seed: p.Seed}, r.Due); ok {
			out = append(out, float64(at.Sub(r.Due))/1e6)
		}
	}
	return out
}

// serveLayers fills the serve workloads' per-layer metrics: cache, batch
// and shard counters from cbmad's /metrics, stage histograms from its
// per-job manifests, and the timing decorators of the replica run.
func serveLayers(o *outcome, cfg runConfig, sharded bool, jobs []plannedJob, recs []jobRecord, scrape map[string]float64, jt *jobTelemetry, journalBytes int64, oracle map[string][]byte) error {
	hits, misses := scrape["cbma_serve_cache_hits"], scrape["cbma_serve_cache_misses"]
	o.Metrics["core.cache_hits"] = hits
	o.Metrics["core.cache_misses"] = misses
	o.Metrics["core.cache_hit_ratio"] = ratio(hits, hits+misses)
	size, timer, drain := scrape["cbma_serve_batch_flush_size"], scrape["cbma_serve_batch_flush_timer"], scrape["cbma_serve_batch_flush_drain"]
	o.Metrics["batch.timer_flush_share"] = ratio(timer, size+timer+drain)
	o.Metrics["batch.points_per_flush"] = ratio(scrape["cbma_serve_batch_points_sum"], scrape["cbma_serve_batch_points_count"])
	o.Metrics["shard.retries"] = scrape["cbma_shard_retries"]
	o.Metrics["shard.journal_bytes"] = float64(journalBytes)
	o.Meta["batch_flushes"] = map[string]float64{"size": size, "timer": timer, "drain": drain}

	o.Meta["job_events"] = jt.Events
	warmPoints := 0
	for _, j := range jobs {
		if j.Warm {
			warmPoints += len(j.Points)
		}
	}
	o.Attempted++
	if jt.Events["point_cached"] != warmPoints {
		o.fail(1, "event streams report %d cache-served points, want %d", jt.Events["point_cached"], warmPoints)
	}

	rep, err := runReplica(cfg, sharded, jobs)
	if err != nil {
		return err
	}
	o.Attempted += len(jobs)
	checkServed(o, jobs, rep.recs, oracle)
	o.Metrics["core.store_get_ns"] = median(rep.store.gets)
	o.Metrics["core.store_put_ns"] = median(rep.store.puts)
	o.Metrics["core.runner_busy_ms"] = float64(rep.runner.busy) / 1e6
	qw := rep.queueWaits(jobs)
	o.Metrics["batch.queue_wait_p50_ms"] = percentile(qw, 0.5).Value
	o.Metrics["batch.queue_wait_p90_ms"] = percentile(qw, 0.9).Value
	if t := rep.transport; t != nil {
		o.Metrics["shard.spawn_ms"] = median(t.spawn)
		o.Metrics["shard.attempt_ms"] = median(t.attempt)
		o.Metrics["shard.wire_ms"] = median(t.wire)
		o.Meta["shard_attempts"] = len(t.attempt)
	}
	// Stage and phase totals per cold job, from the daemon's manifests. A
	// sharded daemon's stages run in its workers, whose registries merge
	// into the coordinator's observer rather than the job's; there the
	// replica's coordinator supplies them. Point times come from the
	// replica's campaign histogram (cbmad keeps it in its process registry,
	// whose /metrics buckets are too coarse for a median).
	repSnap := rep.obs.Registry().Snapshot().Merge(rep.obs.Shards().Merged())
	stages, perJobs, src := jt.Stages, jt.Jobs, "cbmad job manifests"
	if !hasHistogram(stages, "sim.stage.mix_ns") {
		stages, perJobs, src = repSnap, rep.coldJobs(jobs), "replica shard workers"
	}
	stagesFrom(o, stages, float64(perJobs))
	o.Meta["stage_source"] = src
	for _, h := range repSnap.Histograms {
		if h.Name == "campaign.point_ns" {
			o.Metrics["sim.point_p50_ms"] = float64(h.Quantile(0.5)) / 1e6
			o.Metrics["sim.point_max_ms"] = float64(h.Max) / 1e6
		}
	}
	dw, dc := latencies(jobs, recs)
	rw, rc := latencies(jobs, rep.recs)
	o.Metrics["http.overhead_ms"] = median(append(dw, dc...)) - median(append(rw, rc...))
	o.Meta["replica"] = map[string]any{
		"warm_p50_ms": median(rw), "cold_p50_ms": median(rc),
		"generator_lateness_ms": map[string]float64{"p50": median(rep.late), "max": maxOf(rep.late)},
		"runner_calls":          rep.runner.calls,
		"queue_wait_samples":    len(qw),
	}

	engineNew, err := timeNewEngine(jobs[0].Points)
	if err != nil {
		return err
	}
	o.Metrics["sim.engine_new_ns"] = engineNew
	sh, err := fig8aGrid.shape()
	if err != nil {
		return err
	}
	if err := kernelRows(o, sh); err != nil {
		return err
	}
	fillUnexercised(o)
	return nil
}

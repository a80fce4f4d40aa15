package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cbma/internal/obs"
	"cbma/internal/sim"
)

// The serve workloads' job stream: an open loop of seeded Poisson arrivals
// below saturation. A job is 1-4 fig8a-shaped points; every other job
// resubmits an earlier job's points (warm: all cache reads), the rest bring
// fresh seeds (cold: cache writes). The working set stays far below the
// daemon's 4096-entry memory cache.
//
// To keep run-to-run spread down, the stream fixes what a Poisson stream
// leaves to chance but the daemon's behaviour does not depend on: the job
// count (serveRate × duration; arrival times are then the sorted uniform
// draws a Poisson process conditioned on that count has), the mix of cold
// job sizes (equal numbers of 1-, 2-, 3- and 4-point jobs, shuffled; a
// warm job repeats a job of the size it drew) and the mix of cold points
// over the fig8a grid.
const (
	serveRate    = 20.0 // jobs per second
	servePackets = 5
	// warmMinAge is how long before a resubmission its source job was due,
	// well beyond any job's latency, so a warm job's points were all
	// answered before.
	warmMinAge          = time.Second
	pollEvery           = 2 * time.Millisecond
	daemonSpawns        = 15
	labelServe   uint64 = 0xbe0e
)

// plannedJob is one job of the stream.
type plannedJob struct {
	Due    time.Duration
	Points []sim.Scenario
	Warm   bool
}

// jobStream derives the job stream of a seed.
func jobStream(seed int64, dur time.Duration) []plannedJob {
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, labelServe)))
	n := int(serveRate * dur.Seconds())
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * dur.Seconds()
	}
	sort.Float64s(dues)
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 1 + i%4
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	// Cold points deal their (tag count, distance) cells from shuffled
	// copies of the fig8a grid, so every stream carries the same mix.
	var deck [][2]int
	draw := func() (tags int, dist float64) {
		if len(deck) == 0 {
			for _, t := range fig8aGrid.Tags {
				for d := range fig8aGrid.Distances {
					deck = append(deck, [2]int{t, d})
				}
			}
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		c := deck[len(deck)-1]
		deck = deck[:len(deck)-1]
		return c[0], fig8aGrid.Distances[c[1]]
	}

	jobs := make([]plannedJob, 0, n)
	cold := make([][]int, 5) // indices of cold jobs by size, in due order
	for i, t := range dues {
		due := time.Duration(t * float64(time.Second))
		// A warm job resubmits a cold job of its own drawn size.
		same := cold[sizes[i]]
		old := sort.Search(len(same), func(k int) bool { return jobs[same[k]].Due > due-warmMinAge })
		if i%2 == 1 && old > 0 {
			src := jobs[same[rng.Intn(old)]]
			jobs = append(jobs, plannedJob{Due: due, Points: src.Points, Warm: true})
			continue
		}
		pts := make([]sim.Scenario, sizes[i])
		for k := range pts {
			scn := sim.DefaultScenario()
			scn.NumTags, scn.TagLineDistance = draw()
			scn.PayloadBytes = fig8aGrid.Payload
			scn.Packets = servePackets
			scn.Deployment.Tags = nil
			scn.Seed = rng.Int63()
			pts[k] = scn
		}
		cold[len(pts)] = append(cold[len(pts)], len(jobs))
		jobs = append(jobs, plannedJob{Due: due, Points: pts})
	}
	return jobs
}

// jobRecord is one job's observed outcome.
type jobRecord struct {
	ID      string
	Due     time.Time
	Done    time.Time
	Status  string
	Err     string
	Results []servedPoint
}

// servedPoint is one point of a job's status reply.
type servedPoint struct {
	Metrics      json.RawMessage `json:"metrics"`
	Cached       bool            `json:"cached"`
	ScenarioHash string          `json:"scenario_hash"`
	Err          string          `json:"error"`
}

// openLoop calls send for every job at its due time (from start) and
// returns how late the generator was for each, in ms. send must not block
// for long; it is told the due time to measure latency from.
func openLoop(jobs []plannedJob, start time.Time, send func(i int, due time.Time)) []float64 {
	late := make([]float64, len(jobs))
	for i, j := range jobs {
		due := start.Add(j.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = float64(time.Since(due)) / 1e6
		send(i, due)
	}
	return late
}

// daemon is one spawned cbmad process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// logDone is closed once the daemon's stderr reached EOF.
	logDone chan struct{}
	mu      sync.Mutex
	logTail []string
}

// startDaemon spawns cbmad and returns once /v1/healthz answers, with the
// time that took.
func startDaemon(ctx context.Context, cfg runConfig, client *http.Client, args ...string) (*daemon, time.Duration, error) {
	cmd := exec.Command(cfg.Cbmad, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// Own process group, so stopping the daemon reaches its shard workers.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting cbmad: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, " listening on "); ok {
				select {
				case addrc <- strings.Fields(rest)[0]:
				default:
				}
			}
			d.mu.Lock()
			d.logTail = append(d.logTail, line)
			if len(d.logTail) > 20 {
				d.logTail = d.logTail[1:]
			}
			d.mu.Unlock()
		}
	}()
	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, fmt.Errorf("%w (cbmad log: %s)", err, d.logs())
	}
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case <-d.logDone:
		return fail(errors.New("cbmad exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("cbmad did not report its address"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			return fail(errors.New("cbmad healthz never answered"))
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) logs() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logTail, " | ")
}

// stop asks the daemon to drain and exit, kills its process group if it
// does not within the drain budget, and waits for it.
func (d *daemon) stop() error {
	pid := d.cmd.Process.Pid
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.logDone:
	case <-time.After(40 * time.Second):
		_ = syscall.Kill(-pid, syscall.SIGKILL)
		<-d.logDone
	}
	err := d.cmd.Wait()
	// Workers share the group; none may outlive the benchmark.
	_ = syscall.Kill(-pid, syscall.SIGKILL)
	// cbmad answers healthz before it installs its signal handler, so a
	// daemon stopped straight after set-up may die of the signal itself.
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// getJSON fetches a daemon path into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// memstatsAlloc reads the daemon's cumulative allocated bytes from expvar.
func memstatsAlloc(client *http.Client, d *daemon) (uint64, error) {
	var v struct {
		Memstats struct {
			TotalAlloc uint64
		} `json:"memstats"`
	}
	err := getJSON(client, d.base+"/debug/vars", &v)
	return v.Memstats.TotalAlloc, err
}

// driveDaemon sends the job stream to a daemon and waits for every job,
// polling job status over the client's two connections.
func driveDaemon(client *http.Client, d *daemon, jobs []plannedJob) ([]jobRecord, []float64, error) {
	bodies := make([][]byte, len(jobs))
	for i, j := range jobs {
		b, err := json.Marshal(map[string]any{"what": "perfbench", "points": j.Points})
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = b
	}
	recs := make([]jobRecord, len(jobs))
	var (
		mu      sync.Mutex
		pending []int
		sent    bool
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() { // poller
		defer wg.Done()
		for {
			mu.Lock()
			ids := append([]int(nil), pending...)
			finished := sent && len(pending) == 0
			mu.Unlock()
			if finished {
				return
			}
			for _, i := range ids {
				var info struct {
					Status  string        `json:"status"`
					Error   string        `json:"error"`
					Results []servedPoint `json:"results"`
				}
				if err := getJSON(client, d.base+"/v1/campaigns/"+recs[i].ID, &info); err != nil {
					info.Status, info.Error = "failed", err.Error()
				}
				if info.Status == "pending" {
					continue
				}
				now := time.Now()
				mu.Lock()
				recs[i].Done, recs[i].Status, recs[i].Err, recs[i].Results = now, info.Status, info.Error, info.Results
				pending = remove(pending, i)
				mu.Unlock()
			}
			time.Sleep(pollEvery)
		}
	}()
	late := openLoop(jobs, time.Now(), func(i int, due time.Time) {
		recs[i].Due = due
		resp, err := client.Post(d.base+"/v1/campaigns", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			recs[i].Status, recs[i].Err, recs[i].Done = "failed", err.Error(), time.Now()
			return
		}
		var info struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			recs[i].Status, recs[i].Err, recs[i].Done = "failed", fmt.Sprintf("submit: %s %v", resp.Status, err), time.Now()
			return
		}
		recs[i].ID = info.ID
		mu.Lock()
		pending = append(pending, i)
		mu.Unlock()
	})
	mu.Lock()
	sent = true
	mu.Unlock()
	wg.Wait()
	return recs, late, nil
}

func remove(xs []int, v int) []int {
	for k, x := range xs {
		if x == v {
			return append(xs[:k], xs[k+1:]...)
		}
	}
	return xs
}

// directResults runs every distinct point of the stream through
// sim.RunCampaign, keyed by scenario hash, as the served points' oracle.
func directResults(jobs []plannedJob) (map[string][]byte, error) {
	var pts []sim.Scenario
	var keys []string
	seen := map[string]bool{}
	for _, j := range jobs {
		for _, p := range j.Points {
			h, err := p.Hash()
			if err != nil {
				return nil, err
			}
			if !seen[h] {
				seen[h] = true
				pts = append(pts, p)
				keys = append(keys, h)
			}
		}
	}
	ms, err := sim.RunCampaign(pts, sim.CampaignOpts{Workers: runtime.GOMAXPROCS(0), What: "perfbench oracle"})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(ms))
	for i, m := range ms {
		b, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		out[keys[i]] = b
	}
	return out, nil
}

// canonical re-encodes served metrics the way the oracle's are encoded.
func canonical(raw json.RawMessage) ([]byte, error) {
	var m sim.Metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	return json.Marshal(m)
}

// checkServed verifies every job: it finished, each point is bit-identical
// to the direct run of its scenario, and a warm job was served entirely
// from the cache. It returns the failed job count.
func checkServed(o *outcome, jobs []plannedJob, recs []jobRecord, oracle map[string][]byte) {
	for i, r := range recs {
		j := jobs[i]
		if r.Status != "done" {
			o.fail(1, "job %d (%s): status %q %s", i, r.ID, r.Status, r.Err)
			continue
		}
		if len(r.Results) != len(j.Points) {
			o.fail(1, "job %d: %d results for %d points", i, len(r.Results), len(j.Points))
			continue
		}
		bad := ""
		for k, p := range r.Results {
			h, _ := j.Points[k].Hash()
			got, err := canonical(p.Metrics)
			switch {
			case p.Err != "" || err != nil:
				bad = fmt.Sprintf("point %d failed: %s %v", k, p.Err, err)
			case p.ScenarioHash != h:
				bad = fmt.Sprintf("point %d hash %s, want %s", k, p.ScenarioHash, h)
			case string(got) != string(oracle[h]):
				bad = fmt.Sprintf("point %d metrics differ from the direct run", k)
			case j.Warm && !p.Cached:
				bad = fmt.Sprintf("warm point %d not served from cache", k)
			}
			if bad != "" {
				break
			}
		}
		if bad != "" {
			o.fail(1, "job %d (%s): %s", i, r.ID, bad)
		}
	}
}

// latencies splits the jobs' due→result times (ms) into warm and cold.
func latencies(jobs []plannedJob, recs []jobRecord) (warm, cold []float64) {
	for i, r := range recs {
		if r.Status != "done" {
			continue
		}
		ms := float64(r.Done.Sub(r.Due)) / 1e6
		if jobs[i].Warm {
			warm = append(warm, ms)
		} else {
			cold = append(cold, ms)
		}
	}
	return warm, cold
}

// streamRounds counts the rounds a stream serves and the rounds it
// executes (cold points only).
func streamRounds(jobs []plannedJob) (served, executed int) {
	for _, j := range jobs {
		for _, p := range j.Points {
			served += p.Packets
			if !j.Warm {
				executed += p.Packets
			}
		}
	}
	return served, executed
}

func runServeMixed(cfg runConfig) (*outcome, error) { return runServe(cfg, false) }
func runServeSharded(cfg runConfig) (*outcome, error) {
	return runServe(cfg, true)
}

// runServe runs the job stream against a cbmad daemon (default flags, or
// two shard workers with a journal) and, when traced, against an in-process
// replica of its batch and core layers.
func runServe(cfg runConfig, sharded bool) (*outcome, error) {
	if cfg.Cbmad == "" {
		return nil, errors.New("serve workloads need -cbmad")
	}
	ctx := context.Background()
	o := newOutcome()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()
	journal := filepath.Join(cfg.Work, "journal")
	var args []string
	if sharded {
		args = []string{"-shards", "2", "-journal-dir", journal}
	}
	dur := time.Duration(cfg.Seconds * float64(time.Second))
	jobs := jobStream(cfg.Seed, dur)

	// Set-up: spawn until healthz, several times; the last daemon serves.
	var (
		setups []float64
		d      *daemon
	)
	for i := 0; i < daemonSpawns; i++ {
		nd, took, err := startDaemon(ctx, cfg, client, args...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < daemonSpawns-1 {
			client.CloseIdleConnections()
			if err := nd.stop(); err != nil {
				return nil, fmt.Errorf("stopping cbmad: %w", err)
			}
			continue
		}
		d = nd
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()

	alloc0, err := memstatsAlloc(client, d)
	if err != nil {
		return nil, err
	}
	mon := startRSSMonitor(d.cmd.Process.Pid, 50*time.Millisecond)
	recs, late, err := driveDaemon(client, d, jobs)
	rssKB := mon.Stop()
	if err != nil {
		return nil, err
	}
	// The daemon's own VmHWM, read while it is still alive, catches a peak
	// between samples.
	if hwm, err := peakRSSKB(d.cmd.Process.Pid); err == nil {
		rssKB = max(rssKB, hwm)
	}
	alloc1, err := memstatsAlloc(client, d)
	if err != nil {
		return nil, err
	}
	var (
		scrape map[string]float64
		perJob *jobTelemetry
		jBytes int64
	)
	if cfg.Trace {
		if scrape, err = scrapeMetrics(client, d); err != nil {
			return nil, err
		}
		if perJob, err = readJobTelemetry(client, d, jobs, recs); err != nil {
			return nil, err
		}
	}
	client.CloseIdleConnections()
	stopped = true
	if err := d.stop(); err != nil {
		o.fail(1, "cbmad exit: %v (log: %s)", err, d.logs())
	}
	if sharded {
		jBytes = dirBytes(journal)
	}

	oracle, err := directResults(jobs)
	if err != nil {
		return nil, err
	}
	o.Attempted = len(jobs)
	checkServed(o, jobs, recs, oracle)

	warm, cold := latencies(jobs, recs)
	first, last := recs[0].Due, recs[0].Done
	for _, r := range recs {
		if r.Done.After(last) {
			last = r.Done
		}
	}
	window := last.Sub(first).Seconds()
	served, executed := streamRounds(jobs)
	p := map[string]pctl{
		"warm_p50_ms": percentile(warm, 0.5), "warm_p90_ms": percentile(warm, 0.9),
		"cold_p50_ms": percentile(cold, 0.5), "cold_p90_ms": percentile(cold, 0.9),
	}
	for name, v := range p {
		o.Metrics[name] = v.Value
	}
	o.Meta["percentiles"] = p
	o.Metrics["setup_s"] = median(setups)
	o.Metrics["rounds_per_s"] = float64(served) / window
	o.Metrics["alloc_kb_per_round"] = float64(alloc1-alloc0) / 1024 / float64(executed)
	o.Metrics["peak_rss_mb"] = float64(rssKB) / 1024
	o.Metrics["jobs_per_s"] = float64(len(warm)+len(cold)) / window
	hs := make([]string, 0, len(jobs))
	for _, j := range jobs {
		for _, pt := range j.Points {
			h, _ := pt.Hash()
			hs = append(hs, h)
		}
	}
	digest, err := obs.HashJSON(hs)
	if err != nil {
		return nil, err
	}
	o.Meta["scenario_hash"] = digest
	o.Meta["jobs"] = map[string]int{"total": len(jobs), "warm": len(warm), "cold": len(cold)}
	o.Meta["rounds"] = map[string]int{"served": served, "executed": executed}
	o.Meta["generator_lateness_ms"] = map[string]float64{"p50": median(late), "max": maxOf(late)}
	o.Meta["offered_jobs_per_s"] = serveRate
	o.Meta["cbmad_args"] = args
	o.Meta["samples"] = map[string]int{"setup_s": len(setups)}

	if !cfg.Trace {
		return o, nil
	}
	if err := serveLayers(o, cfg, sharded, jobs, recs, scrape, perJob, jBytes, oracle); err != nil {
		return nil, err
	}
	return o, nil
}

// scrapeMetrics reads cbmad's /metrics (unlabelled series only).
func scrapeMetrics(client *http.Client, d *daemon) (map[string]float64, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// jobTelemetry is what the traced run reads from the daemon's per-job
// manifests and event streams.
type jobTelemetry struct {
	// Stages merges the cold jobs' manifest registries (the worker-side
	// registry too, for sharded jobs); Jobs counts them.
	Stages obs.Snapshot
	Jobs   int
	// Events counts per type over every job's event stream.
	Events map[string]int
}

// readJobTelemetry fetches every finished job's event stream and every cold
// job's manifest.
func readJobTelemetry(client *http.Client, d *daemon, jobs []plannedJob, recs []jobRecord) (*jobTelemetry, error) {
	t := &jobTelemetry{Events: map[string]int{}}
	for i, r := range recs {
		if r.Status != "done" {
			continue
		}
		resp, err := client.Get(d.base + "/v1/campaigns/" + r.ID + "/events")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		for sc.Scan() {
			var ev obs.Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				t.Events[ev.Type]++
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
		if jobs[i].Warm {
			continue
		}
		var man obs.Manifest
		if err := getJSON(client, d.base+"/v1/campaigns/"+r.ID+"/manifest", &man); err != nil {
			return nil, err
		}
		t.Stages = t.Stages.Merge(man.Registry)
		if man.WorkerRegistry != nil {
			t.Stages = t.Stages.Merge(*man.WorkerRegistry)
		}
		t.Jobs++
	}
	return t, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

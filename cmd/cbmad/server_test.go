package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cbma/internal/obs"
	"cbma/internal/serve/batch"
	"cbma/internal/serve/core"
	"cbma/internal/sim"
)

// countingRunner wraps a Runner and counts executed points, so the e2e
// test can prove a cache hit skipped execution on the serving path.
type countingRunner struct {
	inner  core.Runner
	points atomic.Int64
}

func (c *countingRunner) Run(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error) {
	c.points.Add(int64(len(points)))
	return c.inner.Run(ctx, points, opts)
}

// testDaemon is an in-process cbmad over httptest: real service, real
// batcher, real HTTP mux — only the listener is synthetic.
type testDaemon struct {
	ts     *httptest.Server
	srv    *server
	runner *countingRunner
	o      *obs.Observer
	b      *batch.Batcher
}

func startDaemon(t *testing.T) *testDaemon {
	t.Helper()
	return startDaemonWith(t, core.CampaignRunner{})
}

// startDaemonWith starts a test daemon whose Service executes through
// inner (wrapped in a point counter).
func startDaemonWith(t testing.TB, inner core.Runner) *testDaemon {
	t.Helper()
	runner := &countingRunner{inner: inner}
	o := obs.New(obs.Config{Clock: obs.SystemClock()})
	svc := &core.Service{Runner: runner, Store: core.NewMemoryStore(0), Obs: o}
	b := batch.New(batch.Config{Service: svc, Obs: o})
	ctx, cancel := context.WithCancel(context.Background())
	srv := newServer(ctx, b, o)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		ts.Close()
		drainCtx, done := context.WithTimeout(context.Background(), 10*time.Second)
		defer done()
		_ = b.Close(drainCtx)
		cancel()
		srv.drain() // collect finishJob goroutines before the leak check runs
		http.DefaultClient.CloseIdleConnections()
	})
	return &testDaemon{ts: ts, srv: srv, runner: runner, o: o, b: b}
}

func (d *testDaemon) submit(t *testing.T, body string) jobInfo {
	t.Helper()
	resp, err := http.Post(d.ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, buf.String())
	}
	var inf jobInfo
	if err := json.NewDecoder(resp.Body).Decode(&inf); err != nil {
		t.Fatal(err)
	}
	return inf
}

// wait polls the status endpoint until the job leaves "pending".
func (d *testDaemon) wait(t *testing.T, id string) jobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.ts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var inf jobInfo
		err = json.NewDecoder(resp.Body).Decode(&inf)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if inf.Status != "pending" {
			return inf
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobInfo{}
}

func quickScenario(seed int64) sim.Scenario {
	scn := sim.DefaultScenario()
	scn.Seed = seed
	scn.Packets = 20
	return scn
}

func scenarioJSON(t *testing.T, scns ...sim.Scenario) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{"what": "e2e", "points": scns})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The acceptance criterion end to end: metrics served by cbmad over HTTP
// are bit-identical to a direct sim.RunCampaign of the same scenarios, and
// a second identical submission is answered from the cache — zero
// additional executed points, every result flagged Cached, and the
// serve.cache.hits counter advanced.
func TestDaemonServesBitIdenticalAndCaches(t *testing.T) {
	d := startDaemon(t)
	points := []sim.Scenario{quickScenario(7), quickScenario(8)}

	direct, err := sim.RunCampaign(points, sim.CampaignOpts{What: "direct"})
	if err != nil {
		t.Fatal(err)
	}

	first := d.wait(t, d.submit(t, scenarioJSON(t, points...)).ID)
	if first.Status != "done" {
		t.Fatalf("first job status = %q (%s)", first.Status, first.Error)
	}
	if len(first.Results) != len(points) {
		t.Fatalf("got %d results, want %d", len(first.Results), len(points))
	}
	for i, r := range first.Results {
		if r.Cached {
			t.Errorf("point %d cached on first submission", i)
		}
		directJSON, err := json.Marshal(direct[i])
		if err != nil {
			t.Fatal(err)
		}
		servedJSON, err := json.Marshal(r.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(directJSON, servedJSON) {
			t.Errorf("point %d: served metrics differ from direct run\ndirect: %s\nserved: %s", i, directJSON, servedJSON)
		}
	}
	if got := d.runner.points.Load(); got != int64(len(points)) {
		t.Fatalf("first submission executed %d points, want %d", got, len(points))
	}
	hitsBefore := d.o.Counter("serve.cache.hits").Value()

	second := d.wait(t, d.submit(t, scenarioJSON(t, points...)).ID)
	if second.Status != "done" {
		t.Fatalf("second job status = %q (%s)", second.Status, second.Error)
	}
	for i, r := range second.Results {
		if !r.Cached {
			t.Errorf("point %d not served from cache on resubmission", i)
		}
		firstJSON, err := json.Marshal(first.Results[i].Metrics)
		if err != nil {
			t.Fatal(err)
		}
		secondJSON, err := json.Marshal(r.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(firstJSON, secondJSON) {
			t.Errorf("point %d: cached metrics differ from first submission", i)
		}
	}
	if got := d.runner.points.Load(); got != int64(len(points)) {
		t.Errorf("resubmission executed %d extra points, want 0", got-int64(len(points)))
	}
	if hits := d.o.Counter("serve.cache.hits").Value() - hitsBefore; hits != int64(len(points)) {
		t.Errorf("serve.cache.hits advanced by %d, want %d", hits, len(points))
	}
}

// The events endpoint replays the job's JSONL stream after completion and
// the manifest endpoint serves the assembled run manifest.
func TestDaemonEventsAndManifest(t *testing.T) {
	d := startDaemon(t)
	inf := d.wait(t, d.submit(t, scenarioJSON(t, quickScenario(31))).ID)
	if inf.Status != "done" {
		t.Fatalf("status = %q (%s)", inf.Status, inf.Error)
	}

	resp, err := http.Get(d.ts.URL + "/v1/campaigns/" + inf.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	types := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		types[ev.Type] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"job_accepted", "round", "job_done"} {
		if !types[want] {
			t.Errorf("event stream missing %q (got %v)", want, types)
		}
	}

	mresp, err := http.Get(d.ts.URL + "/v1/campaigns/" + inf.ID + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("manifest status = %d", mresp.StatusCode)
	}
	var man obs.Manifest
	if err := json.NewDecoder(mresp.Body).Decode(&man); err != nil {
		t.Fatal(err)
	}
	if man.Tool != "cbmad" {
		t.Errorf("manifest tool = %q", man.Tool)
	}
	wantHash, err := quickScenario(31).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if man.ScenarioHash != wantHash {
		t.Errorf("manifest scenario hash = %q, want %q", man.ScenarioHash, wantHash)
	}
}

// Malformed and oversized submissions are rejected at the door.
func TestDaemonRejectsBadSubmissions(t *testing.T) {
	d := startDaemon(t)
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty", `{"what":"x","points":[]}`, http.StatusBadRequest},
		{"garbage", `{nope`, http.StatusBadRequest},
		{"unknown field", `{"what":"x","pints":[]}`, http.StatusBadRequest},
		{"invalid scenario", scenarioJSON(t, func() sim.Scenario {
			s := quickScenario(1)
			s.NumTags = -1 // fails scenario validation inside Hash()
			return s
		}()), http.StatusBadRequest},
		{"too many tags", scenarioJSON(t, func() sim.Scenario {
			s := quickScenario(1)
			s.NumTags = 1 << 30 // validation would place a position per tag
			return s
		}()), http.StatusBadRequest},
		{"delay spread beyond one frame", scenarioJSON(t, func() sim.Scenario {
			s := quickScenario(1)
			s.ExtraDelayChips = []float64{0, 1e9} // NewEngine would refuse it after a 202
			return s
		}()), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(d.ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// Oversized submit bodies die at the MaxBytesReader with an explicit 413
// JSON error; bodies with trailing garbage after the document are 400s.
// Either way the decoder never buffers more than the configured cap.
func TestDaemonBoundsSubmitBody(t *testing.T) {
	d := startDaemon(t)
	d.srv.maxBody = 512

	huge := `{"what":"` + strings.Repeat("x", 4096) + `","points":[]}`
	resp, err := http.Post(d.ts.URL+"/v1/campaigns", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", resp.StatusCode)
	}
	if err != nil || !strings.Contains(e.Error, "512") {
		t.Errorf("oversized body: error = %q (decode err %v), want a JSON error naming the limit", e.Error, err)
	}

	// A valid document followed by garbage is malformed, not accepted.
	d.srv.maxBody = defaultMaxBody
	trailing := scenarioJSON(t, quickScenario(1)) + "garbage"
	resp, err = http.Post(d.ts.URL+"/v1/campaigns", "application/json", strings.NewReader(trailing))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing data: status = %d, want 400", resp.StatusCode)
	}

	// A well-formed submission under the cap still goes through.
	inf := d.wait(t, d.submit(t, scenarioJSON(t, quickScenario(2))).ID)
	if inf.Status != "done" {
		t.Errorf("in-bounds submission: status = %q, want done", inf.Status)
	}
}

// Unknown job IDs 404 on every per-job endpoint.
func TestDaemonUnknownJob(t *testing.T) {
	d := startDaemon(t)
	for _, path := range []string{"/v1/campaigns/nope", "/v1/campaigns/nope/events", "/v1/campaigns/nope/manifest"} {
		resp, err := http.Get(d.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// The list endpoint shows submitted jobs and healthz answers.
func TestDaemonListAndHealth(t *testing.T) {
	d := startDaemon(t)
	inf := d.wait(t, d.submit(t, scenarioJSON(t, quickScenario(41))).ID)

	resp, err := http.Get(d.ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []jobInfo `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range list.Jobs {
		if j.ID == inf.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("list is missing job %s: %+v", inf.ID, list.Jobs)
	}

	hresp, err := http.Get(d.ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", hresp.StatusCode)
	}

	sresp, err := http.Get(fmt.Sprintf("%s/v1/stats", d.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
}

// cancelJob sends DELETE /v1/campaigns/{id} and returns the status code
// and decoded JSON body.
func (d *testDaemon) cancelJob(t *testing.T, id string) (int, map[string]string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, d.ts.URL+"/v1/campaigns/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// Cancelling a job that has already finished cancels nothing, so the
// daemon answers 409 naming the job's final status, not 202 "canceling".
func TestDaemonCancelFinishedJobConflicts(t *testing.T) {
	d := startDaemon(t)
	inf := d.wait(t, d.submit(t, scenarioJSON(t, quickScenario(61))).ID)
	if inf.Status != "done" {
		t.Fatalf("status = %q (%s)", inf.Status, inf.Error)
	}
	code, body := d.cancelJob(t, inf.ID)
	if code != http.StatusConflict {
		t.Fatalf("DELETE on a finished job: status = %d (%v), want 409", code, body)
	}
	if !strings.Contains(body["error"], "done") {
		t.Errorf("409 error %q does not name the final status %q", body["error"], "done")
	}
	if again := d.wait(t, inf.ID); again.Status != "done" {
		t.Errorf("status after DELETE = %q, want done", again.Status)
	}
}

// blockOnceRunner holds its first call until that call's context ends and
// then lets the engine see the cancellation (Interrupted partials); later
// calls run the engine normally.
type blockOnceRunner struct {
	entered chan struct{}
	first   atomic.Bool
}

func (r *blockOnceRunner) Run(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error) {
	if r.first.CompareAndSwap(false, true) {
		close(r.entered)
		<-ctx.Done()
	}
	return core.CampaignRunner{}.Run(ctx, points, opts)
}

// DELETE on a running job interrupts that job's own run: it ends
// "canceled", nothing is cached, and a resubmission recomputes the point
// bit-identically to a direct run.
func TestDaemonCancelRunningJob(t *testing.T) {
	runner := &blockOnceRunner{entered: make(chan struct{})}
	d := startDaemonWith(t, runner)
	point := quickScenario(62)

	job := d.submit(t, scenarioJSON(t, point))
	<-runner.entered
	if code, body := d.cancelJob(t, job.ID); code != http.StatusAccepted || body["status"] != "canceling" {
		t.Fatalf("DELETE on a running job = %d %v, want 202 canceling", code, body)
	}
	if inf := d.wait(t, job.ID); inf.Status != "canceled" {
		t.Fatalf("cancelled job status = %q (%s), want canceled", inf.Status, inf.Error)
	}
	if got := d.o.Counter("serve.cache.skipped").Value(); got != 1 {
		t.Errorf("serve.cache.skipped = %d, want 1", got)
	}

	again := d.wait(t, d.submit(t, scenarioJSON(t, point)).ID)
	if again.Status != "done" || len(again.Results) != 1 {
		t.Fatalf("resubmission = %q (%s), %d results", again.Status, again.Error, len(again.Results))
	}
	if again.Results[0].Cached {
		t.Error("resubmission was served from cache: the cancelled run was cached")
	}
	direct, err := sim.RunCampaign([]sim.Scenario{point}, sim.CampaignOpts{What: "direct"})
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct[0])
	if err != nil {
		t.Fatal(err)
	}
	servedJSON, err := json.Marshal(again.Results[0].Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(directJSON, servedJSON) {
		t.Errorf("recomputed metrics differ from a direct run\ndirect: %s\nserved: %s", directJSON, servedJSON)
	}
	if got := d.runner.points.Load(); got != 2 {
		t.Errorf("runner executed %d points, want 2 (cancelled run, then the recompute)", got)
	}
}

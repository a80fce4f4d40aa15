package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cbma/internal/sim"
)

// instantRunner answers every point at once with canned metrics, so the
// fuzzer exercises the daemon's intake, not the engine.
type instantRunner struct{}

func (instantRunner) Run(_ context.Context, points []sim.Scenario, _ sim.CampaignOpts) ([]sim.Metrics, error) {
	ms := make([]sim.Metrics, len(points))
	for i, p := range points {
		ms[i] = sim.Metrics{NumTags: p.NumTags, FramesSent: p.Packets}
	}
	return ms, nil
}

// FuzzSubmitBody sends arbitrary bytes to POST /v1/campaigns. Whatever the
// body, the daemon answers 202, 400 or 413 without panicking, and every
// job it accepts resolves.
func FuzzSubmitBody(f *testing.F) {
	for _, seed := range []string{
		`{"what":"x","points":[{"Seed":1,"NumTags":2,"Packets":20}]}`,
		`{"what":"x","scenario":{"Seed":3,"NumTags":4,"Packets":5,"SIC":true}}`,
		`{"what":"x","points":[{"Seed":1,"NumTags":2,"Packets":20},{"Seed":2,"NumTags":3,"Packets":1,"Family":2}]}`,
		`{"what":"x","points":[]}`,
		`{"what":"x","points":[{"NumTags":-1}]}`,
		`{"what":"x","points":[{"NumTags":100000,"Packets":1}]}`,
		`{"what":"x","class":"a","points":[{"NumTags":2,"Packets":1}]}`,
		`{"points":[{"NumTags":2,"Packets":1}]} trailing`,
		`{nope`,
		``,
	} {
		f.Add([]byte(seed))
	}
	d := startDaemonWith(f, instantRunner{})
	h := d.srv.handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/campaigns", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.String())
		}
		var inf jobInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &inf); err != nil {
			t.Fatalf("202 body %q: %v", rec.Body.String(), err)
		}
		st := d.srv.lookup(inf.ID)
		if st == nil {
			t.Fatalf("accepted job %q is not registered", inf.ID)
		}
		select {
		case <-st.job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("accepted job %s never resolved (body %q)", inf.ID, body)
		}
		if got := d.srv.info(st); got.Status == "pending" || len(got.Results) != got.Points {
			t.Fatalf("resolved job %s: status %q, %d results for %d points", inf.ID, got.Status, len(got.Results), got.Points)
		}
	})
}

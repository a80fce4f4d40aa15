package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	cbma "cbma"
)

func TestParseFaultProfile(t *testing.T) {
	p, err := parseFaultProfile("stuck=0.1, ack-loss=0.25,feedback-retries=3, fallback-state=2,panic=0.05,retries=4")
	if err != nil {
		t.Fatal(err)
	}
	want := &cbma.FaultProfile{
		StuckImpedanceProb: 0.1,
		AckLossProb:        0.25,
		FeedbackRetries:    3,
		FallbackImpedance:  2,
		PanicProb:          0.05,
		MaxRoundRetries:    4,
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("parsed %+v, want %+v", p, want)
	}
}

func TestParseFaultProfileEmptyElements(t *testing.T) {
	p, err := parseFaultProfile("outage=0.5,,")
	if err != nil {
		t.Fatal(err)
	}
	if p.EnergyOutageProb != 0.5 {
		t.Errorf("outage = %v, want 0.5", p.EnergyOutageProb)
	}
}

func TestParseFaultProfileErrors(t *testing.T) {
	cases := map[string]string{
		"bogus-knob=1":   "unknown key",
		"ack-loss":       "not key=value",
		"ack-loss=high":  "ack-loss",
		"retries=weekly": "retries",
	}
	for spec, frag := range cases {
		if _, err := parseFaultProfile(spec); err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("parseFaultProfile(%q) = %v, want error containing %q", spec, err, frag)
		}
	}
}

// readManifest decodes the fields of dir/manifest.json the tests assert on.
func readManifest(t *testing.T, dir string) (man struct {
	Tool        string `json:"tool"`
	Interrupted bool   `json:"interrupted"`
	Events      struct {
		Written int64 `json:"written"`
	} `json:"events"`
}) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	return man
}

func TestRunWritesObsArtifacts(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), []string{
		"-tags", "2", "-packets", "10", "-obs", "-obs-out", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := os.ReadFile(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), `"type":"round"`) {
		t.Error("event log has no round events")
	}
	man := readManifest(t, dir)
	if man.Tool != "cbmasim" || man.Interrupted {
		t.Errorf("manifest = %+v, want tool cbmasim and not interrupted", man)
	}
	if man.Events.Written == 0 {
		t.Error("manifest records zero written events")
	}
}

// TestRunObsFlushOnInterrupt pins the SIGINT contract: a cancelled run still
// flushes the pending telemetry events and writes a partial manifest marked
// interrupted, alongside the partial-metrics flush.
func TestRunObsFlushOnInterrupt(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the signal fired before the run — the extreme partial case
	err := run(ctx, []string{
		"-tags", "2", "-packets", "50", "-obs", "-obs-out", dir,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "events.jsonl")); err != nil {
		t.Fatalf("event log not flushed: %v", err)
	}
	man := readManifest(t, dir)
	if !man.Interrupted {
		t.Errorf("manifest not marked interrupted: %+v", man)
	}
}

func TestParseRates(t *testing.T) {
	got, err := parseRates(" 0, 0.1 ,0.5,")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 0.1, 0.5}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseRates = %v, want %v", got, want)
	}
	if _, err := parseRates(",,"); err == nil {
		t.Error("empty rate list must error")
	}
	if _, err := parseRates("0.1,zap"); err == nil {
		t.Error("malformed rate must error")
	}
}

// TestFaultSweepMarksUnrunPoints pins the interrupted fault sweep's table:
// a point the campaign never started is printed as not run, not as a
// measured 0/0 row indistinguishable from a fault-free point.
func TestFaultSweepMarksUnrunPoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := func(ctx context.Context, pts []cbma.Scenario, _ cbma.CampaignOpts) ([]cbma.Metrics, error) {
		ms := make([]cbma.Metrics, len(pts))
		ms[0] = cbma.Metrics{RoundsPlanned: 4, RoundsExecuted: 4, FramesSent: 8, FramesDelivered: 8}
		return ms, ctx.Err()
	}
	base := cbma.DefaultScenario()
	out := captureStdout(t, func() {
		if err := runFaultSweep(ctx, base, "ack-loss", []float64{0, 0.2, 0.4}, run); !errors.Is(err, context.Canceled) {
			t.Errorf("runFaultSweep = %v, want context.Canceled", err)
		}
	})
	if strings.Contains(out, "0/0") {
		t.Errorf("unrun points printed as measured rows:\n%s", out)
	}
	if got := strings.Count(out, "not run"); got != 2 {
		t.Errorf("%d rows marked not run, want 2:\n%s", got, out)
	}
	if !strings.Contains(out, "8/8") {
		t.Errorf("the measured point's row is missing:\n%s", out)
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	defer func() {
		os.Stdout = stdout
	}()
	f()
	w.Close()
	return string(<-done)
}

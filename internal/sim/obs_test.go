package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"cbma/internal/obs"
)

// testObserver builds an observer with a deterministic clock and a buffered
// JSONL sink, returning the sink's buffer for post-run assertions.
func testObserver() (*obs.Observer, *obs.Sink, *bytes.Buffer) {
	var buf bytes.Buffer
	sink := obs.NewSink(&buf, 1<<16)
	o := obs.New(obs.Config{
		Clock: obs.StepClock(time.Unix(0, 0), time.Microsecond),
		Sink:  sink,
	})
	return o, sink, &buf
}

// TestRunObsEquivalence is the telemetry layer's hard invariant: attaching an
// Observer — spans, counters and a live event sink — changes nothing about a
// run's Metrics, at any worker count, including under the full fault
// profile's quarantine and retry paths. Besides the pipeline fixtures it
// runs a Gold-127 SIC shape (the FFT detection sweep under cancellation),
// and every scenario must time all three receiver phases.
func TestRunObsEquivalence(t *testing.T) {
	scenarios := workerScenarios(t)
	for _, g := range goldenShapes() {
		if g.name == "gold127-sic" {
			scenarios[g.name] = g.scn
		}
	}
	for name, scn := range scenarios {
		t.Run(name, func(t *testing.T) {
			bare := scn
			bare.Workers = 1
			e, err := NewEngine(bare)
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 7} {
				s := scn
				s.Workers = workers
				o, sink, buf := testObserver()
				s.Obs = o
				e, err := NewEngine(s)
				if err != nil {
					t.Fatal(err)
				}
				m, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(baseline, m) {
					t.Errorf("metrics with telemetry (W=%d) diverge from bare run:\n  bare: %+v\n  obs:  %+v",
						workers, baseline, m)
				}
				// The instrumentation must actually have been live, or the
				// equivalence above proves nothing.
				if got := o.Counter("sim.rounds.executed").Value(); got != int64(m.RoundsExecuted) {
					t.Errorf("W=%d: sim.rounds.executed = %d, want %d", workers, got, m.RoundsExecuted)
				}
				for _, phase := range []string{"rx.phase.sync_ns", "rx.phase.detect_ns", "rx.phase.decode_ns"} {
					if o.Histogram(phase).Count() == 0 {
						t.Errorf("W=%d: no %s spans recorded", workers, phase)
					}
				}
				if err := sink.Close(); err != nil {
					t.Fatal(err)
				}
				if sink.Written() == 0 {
					t.Errorf("W=%d: no events written", workers)
				}
				checkRoundEvents(t, workers, buf.Bytes(), s.Packets, m.FramesDelivered)
			}
		})
	}
}

// checkRoundEvents decodes a run's event log and checks its round events
// against the run's Metrics: every "delivered" field is a count, and the
// last packets round events — the steady-state rounds, committed after any
// power-control exploration — sum to framesDelivered.
func checkRoundEvents(t *testing.T, workers int, log []byte, packets, framesDelivered int) {
	t.Helper()
	var delivered []float64
	dec := json.NewDecoder(bytes.NewReader(log))
	for dec.More() {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("W=%d: decoding event log: %v", workers, err)
		}
		if ev.Type != "round" {
			continue
		}
		n, ok := ev.Fields["delivered"].(float64)
		if !ok {
			t.Fatalf("W=%d: round event delivered = %#v, want a number", workers, ev.Fields["delivered"])
		}
		delivered = append(delivered, n)
	}
	if len(delivered) < packets {
		t.Fatalf("W=%d: %d round events, want at least %d", workers, len(delivered), packets)
	}
	sum := 0
	for _, n := range delivered[len(delivered)-packets:] {
		sum += int(n)
	}
	if sum != framesDelivered {
		t.Errorf("W=%d: steady-state round events deliver %d frames, Metrics %d", workers, sum, framesDelivered)
	}
}

// TestCampaignObsEquivalence extends the invariant to RunCampaign and checks
// the campaign-level event record: attaching a campaign observer leaves every
// point's Metrics untouched while the sink sees the campaign lifecycle and
// one point event per scenario.
func TestCampaignObsEquivalence(t *testing.T) {
	base := fastScenario()
	base.Packets = packets(t, 16)
	var points []Scenario
	for i := 0; i < 4; i++ {
		scn := base
		scn.NumTags = 2 + i%2
		scn.Seed = DeriveSeed(base.Seed, 9998, uint64(i))
		points = append(points, scn)
	}
	bare, err := RunCampaign(points, CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	o, sink, buf := testObserver()
	observed, err := RunCampaign(points, CampaignOpts{Workers: 8, What: "obs equivalence", Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("campaign metrics with telemetry diverge:\n  bare: %+v\n  obs:  %+v", bare, observed)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"campaign_start"`, `"campaign_end"`} {
		if !strings.Contains(out, want) {
			t.Errorf("event log missing %s", want)
		}
	}
	if got := strings.Count(out, `"type":"point"`); got != len(points) {
		t.Errorf("event log has %d point events, want %d", got, len(points))
	}
	if got := o.Histogram("campaign.point_ns").Count(); got != int64(len(points)) {
		t.Errorf("campaign.point_ns count = %d, want %d", got, len(points))
	}
}

// TestMergeFinalizedPartialsAirtime is the regression test for the airtime
// double-count: merging already-finalized partials (each carrying a nonzero
// AirtimeSeconds derived from its samples) and finalizing the aggregate must
// equal finalizing the serial merge of the raw partials — the sample count
// must not be converted to seconds twice. It also pins finalize idempotence.
func TestMergeFinalizedPartialsAirtime(t *testing.T) {
	scn := fastScenario()
	partial := func(samples int64) Metrics {
		return Metrics{
			NumTags:        2,
			FramesSent:     2,
			AirtimeSamples: samples,
		}
	}
	raws := []Metrics{partial(40000), partial(25000), partial(35000)}

	var serial Metrics
	for _, p := range raws {
		serial.Merge(p)
	}
	serial.finalize(scn)

	var merged Metrics
	for _, p := range raws {
		fin := p
		fin.finalize(scn)
		if fin.AirtimeSeconds <= 0 {
			t.Fatalf("finalized partial has no airtime: %+v", fin)
		}
		merged.Merge(fin)
	}
	merged.finalize(scn)

	if merged.AirtimeSeconds != serial.AirtimeSeconds {
		t.Errorf("airtime double-counted when merging finalized partials: got %v, want %v",
			merged.AirtimeSeconds, serial.AirtimeSeconds)
	}
	again := merged
	again.finalize(scn)
	if again.AirtimeSeconds != merged.AirtimeSeconds {
		t.Errorf("finalize is not idempotent: %v then %v", merged.AirtimeSeconds, again.AirtimeSeconds)
	}

	// Directly-constructed aggregates (tests, external callers) that carry
	// only AirtimeSeconds keep it through finalize.
	direct := Metrics{AirtimeSeconds: 1.5}
	direct.finalize(scn)
	if direct.AirtimeSeconds != 1.5 {
		t.Errorf("direct AirtimeSeconds not preserved: got %v", direct.AirtimeSeconds)
	}
}

package sim

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"cbma/internal/fault"
	"cbma/internal/tag"
)

// faultScenario is the chaos fixture: a small run with an execution-fault
// profile layered on top of fastScenario.
func faultScenario(t *testing.T, p fault.Profile) Scenario {
	t.Helper()
	scn := fastScenario()
	scn.NumTags = 3
	scn.Packets = packets(t, 24)
	scn.Fault = &p
	return scn
}

// TestChaosRunQuarantinesPanics is the headline resilience invariant: a run
// whose rounds panic (by injection) completes without error, quarantines
// exactly the panicking rounds, and accounts for every planned round.
func TestChaosRunQuarantinesPanics(t *testing.T) {
	scn := faultScenario(t, fault.Profile{PanicProb: 0.5})
	for _, workers := range []int{1, 4} {
		s := scn
		s.Workers = workers
		e, err := NewEngine(s)
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.Run()
		if err != nil {
			t.Fatalf("W=%d: chaos run must not error: %v", workers, err)
		}
		if m.RoundsQuarantined == 0 {
			t.Fatalf("W=%d: no rounds quarantined at 50%% panic probability", workers)
		}
		if m.RoundsExecuted+m.RoundsQuarantined != m.RoundsPlanned {
			t.Errorf("W=%d: executed %d + quarantined %d != planned %d",
				workers, m.RoundsExecuted, m.RoundsQuarantined, m.RoundsPlanned)
		}
		if m.Faults.InjectedPanics != m.RoundsQuarantined {
			t.Errorf("W=%d: %d injected panics but %d quarantined rounds",
				workers, m.Faults.InjectedPanics, m.RoundsQuarantined)
		}
		if m.Interrupted {
			t.Errorf("W=%d: uninterrupted run marked Interrupted", workers)
		}
		// Quarantined rounds contribute no frames; executed ones all do.
		if m.FramesSent != m.RoundsExecuted*s.NumTags {
			t.Errorf("W=%d: %d frames sent from %d executed rounds of %d tags",
				workers, m.FramesSent, m.RoundsExecuted, s.NumTags)
		}
	}
}

// TestTransientRetryRecovers: transient round failures retry within the
// attempt budget; episodes that outlast it quarantine. Every planned round
// is accounted for either way, and retries are visible in the metrics.
func TestTransientRetryRecovers(t *testing.T) {
	scn := faultScenario(t, fault.Profile{TransientErrProb: 1, MaxRoundRetries: 3})
	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Run()
	if err != nil {
		t.Fatalf("transient failures must not error the run: %v", err)
	}
	if m.RoundRetries == 0 {
		t.Fatal("no retries recorded with every round transiently failing")
	}
	if m.Faults.TransientErrors == 0 {
		t.Fatal("no transient errors counted")
	}
	if m.RoundsExecuted == 0 {
		t.Fatal("no round recovered within a 3-retry budget")
	}
	if m.RoundsExecuted+m.RoundsQuarantined != m.RoundsPlanned {
		t.Errorf("executed %d + quarantined %d != planned %d",
			m.RoundsExecuted, m.RoundsQuarantined, m.RoundsPlanned)
	}
}

// TestRetriedRoundsReproduce: a round that recovers after transient retries
// must be bit-identical to the same round executed without execution faults
// — each retry rebuilds the round's streams from scratch. Rounds whose
// episode outlasts the budget quarantine instead (FailAttempts can draw
// MaxRoundRetries+1 by design); those are skipped but must be a minority.
func TestRetriedRoundsReproduce(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 3
	scn.Packets = packets(t, 16)
	eClean, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	faulted := scn
	faulted.Fault = &fault.Profile{TransientErrProb: 1, MaxRoundRetries: 3}
	eFault, err := NewEngine(faulted)
	if err != nil {
		t.Fatal(err)
	}

	ca, fa := getArena(), getArena()
	defer putArena(ca)
	defer putArena(fa)
	recovered := 0
	for p := 0; p < scn.Packets; p++ {
		cs := ca.streams(scn.Seed, 0, phaseSteady, uint64(p))
		cres, err := eClean.resilientRound(eClean.tags, &cs, ca, eClean.recv)
		if err != nil {
			t.Fatal(err)
		}
		fs := fa.streams(scn.Seed, 0, phaseSteady, uint64(p))
		fres, err := eFault.resilientRound(eFault.tags, &fs, fa, eFault.recv)
		if err != nil {
			t.Fatal(err)
		}
		if fres.quarantined {
			continue
		}
		if fres.retries == 0 {
			t.Fatalf("round %d: no transient failure at probability 1", p)
		}
		recovered++
		cdet, fdet := detectedIDs(cres, eClean.tags), detectedIDs(fres, eFault.tags)
		if cres.sent != fres.sent || cres.detected != fres.detected ||
			!reflect.DeepEqual(cres.delivered, fres.delivered) ||
			!reflect.DeepEqual(cdet, fdet) {
			t.Errorf("round %d: retried result diverged from clean result:\n  clean:   sent=%d detected=%v delivered=%v\n  retried: sent=%d detected=%v delivered=%v",
				p, cres.sent, cdet, cres.delivered,
				fres.sent, fdet, fres.delivered)
		}
	}
	// FailAttempts is uniform over [1, 4] against a 4-attempt budget, so
	// 3 of 4 rounds recover in expectation.
	if recovered < scn.Packets/2 {
		t.Fatalf("only %d of %d rounds recovered within the retry budget", recovered, scn.Packets)
	}
}

// detectedIDs lists, in frame order, the tag IDs of the round's decoded
// frames whose sender transmitted this round.
func detectedIDs(res roundResult, active []*tag.Tag) []int {
	var ids []int
	for _, f := range res.frames {
		if activeIndex(active, f.TagID) >= 0 {
			ids = append(ids, f.TagID)
		}
	}
	return ids
}

// TestRunContextAlreadyCancelled: a cancelled context stops the run before
// any round and returns Interrupted partial metrics with the context error.
func TestRunContextAlreadyCancelled(t *testing.T) {
	scn := fastScenario()
	scn.Packets = 8
	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if !m.Interrupted {
		t.Error("partial metrics not marked Interrupted")
	}
	if m.RoundsExecuted != 0 || m.FramesSent != 0 {
		t.Errorf("cancelled-before-start run executed rounds: %+v", m)
	}
}

// countdownCtx is a context whose Err() flips to Canceled after a fixed
// number of calls — a deterministic mid-run cancellation without timers.
type countdownCtx struct {
	mu    sync.Mutex
	calls int
	after int
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestRunContextMidRunCancel: cancellation mid-steady-state returns the
// prefix of committed rounds, finalized and marked Interrupted.
func TestRunContextMidRunCancel(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 2
	scn.Packets = 16
	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countdownCtx{after: 6}
	m, err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if !m.Interrupted {
		t.Error("partial metrics not marked Interrupted")
	}
	if m.RoundsExecuted == 0 || m.RoundsExecuted >= scn.Packets {
		t.Fatalf("mid-run cancel executed %d of %d rounds", m.RoundsExecuted, scn.Packets)
	}
	if m.RoundsPlanned != scn.Packets {
		t.Errorf("planned %d, want %d", m.RoundsPlanned, scn.Packets)
	}

	// The committed rounds are a prefix of the uninterrupted run: the first
	// RoundsExecuted rounds' frame counters must match.
	full, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	prefix := Metrics{
		NumTags:         scn.NumTags,
		PerTagSent:      make([]int, scn.NumTags),
		PerTagDelivered: make([]int, scn.NumTags),
	}
	a := getArena()
	defer putArena(a)
	for p := 0; p < m.RoundsExecuted; p++ {
		rs := a.streams(scn.Seed, 0, phaseSteady, uint64(p))
		res, err := full.resilientRound(full.tags, &rs, a, full.recv)
		if err != nil {
			t.Fatal(err)
		}
		full.commitRound(full.tags, res)
		res.addTo(&prefix, full.tags)
	}
	if prefix.FramesSent != m.FramesSent || prefix.FramesDelivered != m.FramesDelivered {
		t.Errorf("interrupted metrics are not a prefix of the full run:\n  interrupted: %+v\n  prefix:      %+v",
			m, prefix)
	}
}

// TestCampaignPointFailureIsolation: one broken scenario must not discard
// the other points' results; the aggregate error names the broken point and
// unwraps to its cause.
func TestCampaignPointFailureIsolation(t *testing.T) {
	good := fastScenario()
	good.Packets = packets(t, 8)
	bad := good
	bad.NumTags = 0
	ms, err := RunCampaign([]Scenario{good, bad, good}, CampaignOpts{Workers: 1, What: "isolation test"})
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CampaignError", err)
	}
	if len(ce.Points) != 1 || ce.Points[0].Point != 1 {
		t.Fatalf("campaign error %v, want exactly point 1", ce)
	}
	if !errors.Is(err, ErrBadTagCount) {
		t.Errorf("campaign error does not unwrap to ErrBadTagCount: %v", err)
	}
	if ms[0].FramesSent == 0 || ms[2].FramesSent == 0 {
		t.Error("healthy points lost their metrics to the broken one")
	}
	if ms[1].FramesSent != 0 {
		t.Errorf("broken point has metrics: %+v", ms[1])
	}
}

// TestCampaignContextCancelled: a cancelled context stops the campaign and
// returns the context error with whatever points finished.
func TestCampaignContextCancelled(t *testing.T) {
	scn := fastScenario()
	scn.Packets = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms, err := RunCampaignContext(ctx, []Scenario{scn, scn}, CampaignOpts{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if len(ms) != 2 {
		t.Fatalf("partial slice has %d slots, want 2", len(ms))
	}
}

// TestFaultSweepAckLossMonotone is the acceptance curve: error rate versus
// feedback ACK-loss rate degrades gracefully and (within a sampling
// tolerance) monotonically, thanks to the sweep's common-random-numbers
// seeding.
func TestFaultSweepAckLossMonotone(t *testing.T) {
	base := fastScenario()
	base.NumTags = 3
	base.Packets = packets(t, 24)
	base.PacketsPerRound = 4
	base.PowerControl = true
	base.RandomInitialImpedance = true
	rates := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	ms := runPoints(t, FaultSweepPoints(base, rates, func(p *fault.Profile, r float64) {
		p.AckLossProb = r
	}))
	const tol = 0.12
	for i := 1; i < len(ms); i++ {
		if ms[i].FER < ms[i-1].FER-tol {
			t.Errorf("FER not monotone: %.3f at rate %.2f but %.3f at rate %.2f",
				ms[i-1].FER, rates[i-1], ms[i].FER, rates[i])
		}
	}
	first, last := ms[0].FER, ms[len(ms)-1].FER
	if last < first {
		t.Errorf("degradation curve ends below its start: %.3f → %.3f", first, last)
	}
	if last >= 1 {
		t.Errorf("degradation is not graceful: FER hit %.3f at 50%% ACK loss", last)
	}
	for i, m := range ms[1:] {
		if m.Faults.AcksLost == 0 {
			t.Errorf("rate %.2f lost no ACKs — fault layer not wired", rates[i+1])
		}
	}
}

// TestStuckTagsReported: the static stuck-switch draw lands in the metrics
// and freezes the affected tags.
func TestStuckTagsReported(t *testing.T) {
	scn := faultScenario(t, fault.Profile{StuckImpedanceProb: 1})
	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Faults.StuckTags != scn.NumTags {
		t.Errorf("%d stuck tags reported, want %d", m.Faults.StuckTags, scn.NumTags)
	}
	for _, tg := range e.Tags() {
		if !tg.Stuck() {
			t.Errorf("tag %d not stuck at probability 1", tg.ID())
		}
	}
}

// TestFaultFreeProfileReproducesBaseline: arming the fault layer with an
// all-zero profile must not change a run — the injector stays nil and the
// legacy stream draws are untouched.
func TestFaultFreeProfileReproducesBaseline(t *testing.T) {
	clean := fastScenario()
	clean.NumTags = 3
	clean.Packets = packets(t, 16)
	armed := clean
	armed.Fault = &fault.Profile{}

	eClean, err := NewEngine(clean)
	if err != nil {
		t.Fatal(err)
	}
	mClean, err := eClean.Run()
	if err != nil {
		t.Fatal(err)
	}
	eArmed, err := NewEngine(armed)
	if err != nil {
		t.Fatal(err)
	}
	mArmed, err := eArmed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mClean, mArmed) {
		t.Errorf("zero fault profile changed the run:\n  clean: %+v\n  armed: %+v", mClean, mArmed)
	}
}

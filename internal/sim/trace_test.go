package sim

import (
	"bytes"
	"errors"
	"testing"

	"cbma/internal/trace"
)

func TestTraceRecordReplayReproducesRun(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 3
	scn.Packets = packets(t, 30)

	// Live run, recorded.
	live, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder("test capture")
	live.RecordTo(rec)
	mLive, err := live.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != scn.Packets {
		t.Fatalf("recorded %d rounds, want %d", rec.Len(), scn.Packets)
	}

	// Serialize and reload, as a field capture would be.
	var buf bytes.Buffer
	if err := rec.Trace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Replay into a fresh engine with the same receiver: the realized
	// channel is identical, so delivery statistics must match the live run
	// exactly (payloads differ, but success depends only on the channel).
	replayEngine, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	replayEngine.ReplayFrom(trace.NewPlayer(loaded))
	mReplay, err := replayEngine.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The trace pins the channel and timing; payloads and receiver noise
	// are redrawn, so outcomes match statistically, not bit-exactly.
	diff := mLive.FramesDelivered - mReplay.FramesDelivered
	if diff < 0 {
		diff = -diff
	}
	if diff > 2 {
		t.Errorf("replay delivered %d, live delivered %d — same channel should give near-identical delivery",
			mReplay.FramesDelivered, mLive.FramesDelivered)
	}
}

func TestTraceReplayAcrossReceiverVariants(t *testing.T) {
	// The point of trace-driven emulation: decode the SAME collisions with
	// a different receiver. The SIC variant must do at least as well on
	// the recorded near-far rounds.
	scn := fastScenario()
	scn.NumTags = 5
	scn.Packets = packets(t, 30)
	scn.TagLineDistance = 2.5

	live, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder("variant comparison")
	live.RecordTo(rec)
	mPlain, err := live.Run()
	if err != nil {
		t.Fatal(err)
	}

	sicScn := scn
	sicScn.SIC = true
	sicEngine, err := NewEngine(sicScn)
	if err != nil {
		t.Fatal(err)
	}
	sicEngine.ReplayFrom(trace.NewPlayer(rec.Trace()))
	mSIC, err := sicEngine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mSIC.FramesDelivered < mPlain.FramesDelivered {
		t.Errorf("SIC on identical collisions delivered %d < plain %d",
			mSIC.FramesDelivered, mPlain.FramesDelivered)
	}
}

func TestTraceReplayExhaustion(t *testing.T) {
	scn := fastScenario()
	scn.Packets = 5
	live, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder("")
	live.RecordTo(rec)
	if _, err := live.Run(); err != nil {
		t.Fatal(err)
	}

	long := scn
	long.Packets = 10 // more than recorded
	replayEngine, err := NewEngine(long)
	if err != nil {
		t.Fatal(err)
	}
	replayEngine.ReplayFrom(trace.NewPlayer(rec.Trace()))
	if _, err := replayEngine.Run(); !errors.Is(err, trace.ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
}

func TestTraceReplayTagMismatch(t *testing.T) {
	scn := fastScenario()
	scn.Packets = 3
	live, err := NewEngine(scn) // 2 tags recorded
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder("")
	live.RecordTo(rec)
	if _, err := live.Run(); err != nil {
		t.Fatal(err)
	}

	bigger := scn
	bigger.NumTags = 3
	bigger.Deployment.Tags = nil
	replayEngine, err := NewEngine(bigger)
	if err != nil {
		t.Fatal(err)
	}
	replayEngine.ReplayFrom(trace.NewPlayer(rec.Trace()))
	if _, err := replayEngine.Run(); !errors.Is(err, trace.ErrTagCount) {
		t.Fatalf("got %v, want ErrTagCount", err)
	}
}

// TestTraceReplayRejectsDelaySpread replays a round whose recorded delays
// spread over more than one frame: the engine must refuse it with
// ErrDelaySpread rather than grow its mixing buffer to fit.
func TestTraceReplayRejectsDelaySpread(t *testing.T) {
	scn := fastScenario()
	scn.Packets = 2
	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	frameChips := e.frameSamples / scn.SamplesPerChip()
	tr := &trace.Trace{Rounds: []trace.Round{{Seq: 0, Tags: []trace.TagSample{
		{TagID: 0, GainRe: 1e-3},
		{TagID: 1, GainRe: 1e-3, DelayChips: float64(2 * frameChips)},
	}}}}
	e.ReplayFrom(trace.NewPlayer(tr))
	if _, err := e.Run(); !errors.Is(err, ErrDelaySpread) {
		t.Fatalf("got %v, want ErrDelaySpread", err)
	}
}

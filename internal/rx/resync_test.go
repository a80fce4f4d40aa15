package rx

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// newDeafReceiver builds a receiver whose energy detector can never fire
// (an absurd threshold), isolating the ResyncFallback path.
func newDeafReceiver(t *testing.T, n int, fallback bool) *Receiver {
	t.Helper()
	r, err := New(Config{
		Codes:           goldSet(t, n),
		SamplesPerChip:  testSPC,
		NoiseFloorW:     testNoise,
		SearchChips:     1,
		SyncThresholdDB: 200, // energy edge never clears this
		ResyncFallback:  fallback,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResyncFallbackRecoversFrame: with the energy detector blinded, the
// reader-timed fallback still decodes a healthy frame anchored at the
// nominal reply start, and flags the result as re-synced (FrameDetected
// stays false — the detector did not fire).
func TestResyncFallbackRecoversFrame(t *testing.T) {
	set := goldSet(t, 2)
	payload := []byte("resync payload")
	lead := 40 * testSPC
	buf := buildScenario(t, set, [][]byte{payload}, []complex128{amp(15)}, []int{0}, lead, 200)

	deaf := newDeafReceiver(t, 2, false)
	res, err := deaf.ReceiveAt(buf, lead)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameDetected || res.Resynced || len(res.Frames) != 0 {
		t.Fatalf("blinded receiver without fallback decoded anyway: %+v", res)
	}

	rescue := newDeafReceiver(t, 2, true)
	res, err = rescue.ReceiveAt(buf, lead)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resynced {
		t.Fatal("fallback receiver did not report Resynced")
	}
	if res.FrameDetected {
		t.Error("Resynced result claims the energy detector fired")
	}
	if len(res.Frames) != 1 || !res.Frames[0].OK {
		t.Fatalf("fallback decode failed: %+v", res.Frames)
	}
	if !bytes.Equal(res.Frames[0].Payload, payload) {
		t.Errorf("payload %q, want %q", res.Frames[0].Payload, payload)
	}
}

// TestResyncRequiresNominalStart: the fallback only engages when the caller
// supplies an in-range timing hint — Receive (no hint) and out-of-range
// hints behave like the legacy no-detection path.
func TestResyncRequiresNominalStart(t *testing.T) {
	r := newDeafReceiver(t, 2, true)
	rng := rand.New(rand.NewSource(3))
	buf := noiseOnly(rng, 8000, testNoise)

	res, err := r.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resynced {
		t.Error("fallback fired without a timing hint")
	}
	for _, bad := range []int{-1, len(buf), len(buf) + 40} {
		res, err := r.ReceiveAt(buf, bad)
		if err != nil {
			t.Fatal(err)
		}
		if res.Resynced {
			t.Errorf("fallback fired at out-of-range nominal start %d", bad)
		}
	}
}

// TestResyncNoiseOnlyStaysQuiet: the fallback anchors the decode attempt but
// must not conjure frames out of pure noise.
func TestResyncNoiseOnlyStaysQuiet(t *testing.T) {
	r := newDeafReceiver(t, 2, true)
	rng := rand.New(rand.NewSource(9))
	buf := noiseOnly(rng, 20000, testNoise)
	res, err := r.ReceiveAt(buf, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resynced {
		t.Fatal("noise-only fallback not flagged Resynced")
	}
	for _, f := range res.Frames {
		if f.OK {
			t.Errorf("decoded a CRC-valid frame from noise: %+v", f)
		}
	}
}

// TestResyncPreservesHealthyPath: when the detector does fire, the fallback
// must change nothing — same frames as a fallback-free receiver.
func TestResyncPreservesHealthyPath(t *testing.T) {
	set := goldSet(t, 2)
	payload := []byte("healthy frame!")
	lead := 40 * testSPC
	buf := buildScenario(t, set, [][]byte{payload}, []complex128{amp(15)}, []int{0}, lead, 200)

	plain := newTestReceiver(t, set)
	cfgFB := plain.Config()
	cfgFB.ResyncFallback = true
	withFB, err := New(cfgFB)
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.ReceiveAt(buf, lead)
	if err != nil {
		t.Fatal(err)
	}
	b, err := withFB.ReceiveAt(buf, lead)
	if err != nil {
		t.Fatal(err)
	}
	if b.Resynced {
		t.Error("fallback fired on a detectable frame")
	}
	if !b.FrameDetected || len(a.Frames) != len(b.Frames) {
		t.Fatalf("healthy path diverged: %+v vs %+v", a, b)
	}
	for i := range a.Frames {
		if a.Frames[i].TagID != b.Frames[i].TagID || a.Frames[i].OK != b.Frames[i].OK ||
			a.Frames[i].Lag != b.Frames[i].Lag ||
			math.Abs(a.Frames[i].Corr-b.Frames[i].Corr) > 1e-12 {
			t.Errorf("frame %d diverged: %+v vs %+v", i, a.Frames[i], b.Frames[i])
		}
	}
}

package rx

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"cbma/internal/channel"
	"cbma/internal/dsp"
	"cbma/internal/frame"
	"cbma/internal/geom"
	"cbma/internal/pn"
	"cbma/internal/tag"
)

const (
	testSPC   = 4
	testNoise = 1e-10 // watts per sample
)

// buildScenario synthesizes a received buffer containing one frame per
// payload entry, each from a distinct tag, with the given per-tag amplitude
// gains and sample offsets, over a noise floor.
func buildScenario(t testing.TB, set *pn.Set, payloads [][]byte, gains []complex128, offsets []int, leadSamples, tailSamples int) []complex128 {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	var maxEnd int
	waves := make([][]complex128, len(payloads))
	for i, p := range payloads {
		tg, err := tag.New(i, tag.Config{Code: set.Codes[i], SamplesPerChip: testSPC}, geom.Point{})
		if err != nil {
			t.Fatal(err)
		}
		w, err := tg.Waveform(p)
		if err != nil {
			t.Fatal(err)
		}
		waves[i] = w
		if end := leadSamples + offsets[i] + len(w); end > maxEnd {
			maxEnd = end
		}
	}
	buf := make([]complex128, maxEnd+tailSamples)
	for i, w := range waves {
		base := leadSamples + offsets[i]
		for k, v := range w {
			buf[base+k] += v * gains[i]
		}
	}
	channel.AWGN(rng, buf, testNoise)
	return buf
}

// noiseOnly returns n samples of complex Gaussian noise of per-sample power
// powerW: a buffer with no frame in it.
func noiseOnly(rng *rand.Rand, n int, powerW float64) []complex128 {
	buf := make([]complex128, n)
	channel.AWGN(rng, buf, powerW)
	return buf
}

func newTestReceiver(t *testing.T, set *pn.Set) *Receiver {
	t.Helper()
	r, err := New(Config{
		Codes:          set,
		SamplesPerChip: testSPC,
		NoiseFloorW:    testNoise,
		SearchChips:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func goldSet(t *testing.T, n int) *pn.Set {
	t.Helper()
	s, err := pn.NewGoldSet(5, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func amp(snrDB float64) complex128 {
	return complex(math.Sqrt(testNoise*dsp.FromDB(snrDB)), 0)
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoCodes) {
		t.Fatalf("got %v, want ErrNoCodes", err)
	}
	set := goldSet(t, 2)
	if _, err := New(Config{Codes: set, SamplesPerChip: -2}); err == nil {
		t.Fatal("negative spc must fail")
	}
	if _, err := New(Config{Codes: set, Frame: frame.Config{PreambleBits: 3}}); err == nil {
		t.Fatal("bad preamble config must fail")
	}
	r, err := New(Config{Codes: set})
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Config()
	if cfg.SamplesPerChip != 4 || cfg.SyncThresholdDB != 3 || cfg.DetectThreshold != 0.15 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestReceiveEmptyBuffer(t *testing.T) {
	r := newTestReceiver(t, goldSet(t, 2))
	if _, err := r.Receive(nil); err == nil {
		t.Fatal("empty buffer must error")
	}
}

func TestReceiveNoiseOnlyNoDetection(t *testing.T) {
	r := newTestReceiver(t, goldSet(t, 2))
	rng := rand.New(rand.NewSource(1))
	buf := noiseOnly(rng, 20000, testNoise)
	res, err := r.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameDetected {
		t.Error("noise-only buffer must not trigger frame detection")
	}
	if len(res.Frames) != 0 {
		t.Errorf("decoded %d frames from noise", len(res.Frames))
	}
}

func TestReceiveSingleTag(t *testing.T) {
	set := goldSet(t, 2)
	payload := []byte("hello tag zero")
	lead := 40 * testSPC
	buf := buildScenario(t, set, [][]byte{payload}, []complex128{amp(15)}, []int{0}, lead, 200)
	r := newTestReceiver(t, set)
	res, err := r.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FrameDetected {
		t.Fatal("frame not detected")
	}
	if len(res.Frames) != 1 {
		t.Fatalf("detected %d users, want 1", len(res.Frames))
	}
	f := res.Frames[0]
	if f.TagID != 0 {
		t.Errorf("TagID = %d", f.TagID)
	}
	if !f.OK {
		t.Fatalf("decode failed: %v", f.Err)
	}
	if !bytes.Equal(f.Payload, payload) {
		t.Errorf("payload %q, want %q", f.Payload, payload)
	}
	if f.Corr < 0.5 {
		t.Errorf("preamble correlation %v suspiciously low", f.Corr)
	}
	// The user's refined lag must be near the true frame start.
	if d := f.Lag - lead; d < -testSPC || d > testSPC {
		t.Errorf("lag %d, true start %d", f.Lag, lead)
	}
}

func TestReceiveTwoConcurrentTags(t *testing.T) {
	set := goldSet(t, 2)
	p0 := []byte("tag-zero-data")
	p1 := []byte("tag-one-data!")
	lead := 40 * testSPC
	buf := buildScenario(t, set,
		[][]byte{p0, p1},
		[]complex128{amp(15), amp(14) * complex(0, 1)}, // different phases
		[]int{0, 2}, // slight asynchrony
		lead, 200)
	r := newTestReceiver(t, set)
	res, err := r.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 2 {
		t.Fatalf("detected %d users, want 2", len(res.Frames))
	}
	got := map[int][]byte{}
	for _, f := range res.Frames {
		if !f.OK {
			t.Fatalf("tag %d decode failed: %v", f.TagID, f.Err)
		}
		got[f.TagID] = f.Payload
	}
	if !bytes.Equal(got[0], p0) || !bytes.Equal(got[1], p1) {
		t.Errorf("payloads: %q / %q", got[0], got[1])
	}
}

func TestReceive2NCFiveTags(t *testing.T) {
	set, err := pn.New2NCSet(5)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, 5)
	gains := make([]complex128, 5)
	offsets := make([]int, 5)
	for i := range payloads {
		payloads[i] = []byte{byte(i), byte(i * 3), 0xAB}
		gains[i] = amp(16) * complex(math.Cos(float64(i)), math.Sin(float64(i)))
	}
	lead := 30 * testSPC
	buf := buildScenario(t, set, payloads, gains, offsets, lead, 200)
	r := newTestReceiver(t, set)
	res, err := r.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 5 {
		t.Fatalf("detected %d users, want 5", len(res.Frames))
	}
	for _, f := range res.Frames {
		if !f.OK {
			t.Errorf("tag %d failed: %v", f.TagID, f.Err)
			continue
		}
		if !bytes.Equal(f.Payload, payloads[f.TagID]) {
			t.Errorf("tag %d payload %x", f.TagID, f.Payload)
		}
	}
}

func TestReceiveOnlyActiveUsersDetected(t *testing.T) {
	set := goldSet(t, 4)
	payloads := [][]byte{[]byte("only-tag-2")}
	// Build a scenario where only code 2 transmits.
	rng := rand.New(rand.NewSource(99))
	tg, err := tag.New(2, tag.Config{Code: set.Codes[2], SamplesPerChip: testSPC}, geom.Point{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := tg.Waveform(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	lead := 40 * testSPC
	buf := make([]complex128, lead+len(w)+200)
	for k, v := range w {
		buf[lead+k] += v * amp(15)
	}
	channel.AWGN(rng, buf, testNoise)

	r := newTestReceiver(t, set)
	res, err := r.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 1 || res.Frames[0].TagID != 2 {
		ids := []int{}
		for _, f := range res.Frames {
			ids = append(ids, f.TagID)
		}
		t.Fatalf("detected users %v, want [2]", ids)
	}
	if !res.Frames[0].OK {
		t.Errorf("decode failed: %v", res.Frames[0].Err)
	}
}

func TestReceiveTruncatedFrame(t *testing.T) {
	set := goldSet(t, 1)
	payload := bytes.Repeat([]byte{0x5A}, 30)
	lead := 40 * testSPC
	buf := buildScenario(t, set, [][]byte{payload}, []complex128{amp(15)}, []int{0}, lead, 200)
	// Chop the buffer in the middle of the payload.
	buf = buf[:lead+len(buf[lead:])/2]
	r := newTestReceiver(t, set)
	res, err := r.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) == 1 {
		f := res.Frames[0]
		if f.OK {
			t.Error("truncated frame must not pass CRC")
		}
		if f.Err == nil {
			t.Error("truncated frame must carry an error")
		}
	}
}

func TestAckIDs(t *testing.T) {
	res := Result{Frames: []DecodedFrame{
		{TagID: 0, OK: true},
		{TagID: 1, OK: false},
		{TagID: 3, OK: true},
	}}
	ids := res.AckIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 3 {
		t.Errorf("AckIDs = %v, want [0 3]", ids)
	}
	if got := (Result{}).AckIDs(); got != nil {
		t.Errorf("empty result AckIDs = %v", got)
	}
}

func TestReceiveSNREstimatePlausible(t *testing.T) {
	set := goldSet(t, 1)
	lead := 60 * testSPC
	buf := buildScenario(t, set, [][]byte{[]byte("snr-check")}, []complex128{amp(20)}, []int{0}, lead, 100)
	r := newTestReceiver(t, set)
	res, err := r.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 1 {
		t.Fatal("no frame")
	}
	snr := res.Frames[0].SNRdB
	if snr < 10 || snr > 30 {
		t.Errorf("SNR estimate %v dB, want near 20", snr)
	}
	if res.NoiseW <= 0 {
		t.Error("noise estimate must be positive")
	}
}

func TestEnergyDetectFiresNearStart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const lead = 2000
	power := make([]float64, 6000)
	for i := range power {
		power[i] = testNoise * (0.5 + rng.Float64())
	}
	for i := lead; i < len(power); i++ {
		power[i] += testNoise * 20
	}
	const short = 64
	start, found := EnergyDetect(power, 500, 3, short)
	if !found {
		t.Fatal("not detected")
	}
	// True start must lie within [start, start+short].
	if lead < start || lead > start+short {
		t.Errorf("start %d does not bracket true start %d", start, lead)
	}
}

func TestEnergyDetectQuietBuffer(t *testing.T) {
	power := make([]float64, 1000)
	for i := range power {
		power[i] = testNoise
	}
	if _, found := EnergyDetect(power, 100, 3, 64); found {
		t.Error("constant power must not trigger")
	}
	if _, found := EnergyDetect(nil, 100, 3, 64); found {
		t.Error("empty input must not trigger")
	}
}

func TestEnergyDetectParameterClamps(t *testing.T) {
	power := make([]float64, 100)
	for i := 50; i < 100; i++ {
		power[i] = 1
	}
	for i := 0; i < 50; i++ {
		power[i] = 1e-6
	}
	if _, found := EnergyDetect(power, 0, 3, 0); !found {
		t.Error("clamped parameters must still detect the step")
	}
}

package rx

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cbma/internal/dsp"
	"cbma/internal/obs"
	"cbma/internal/pn"
)

func TestBackdateStartClamp(t *testing.T) {
	tests := []struct {
		fire, sw, want int
	}{
		{fire: 100, sw: 64, want: 37},
		{fire: 63, sw: 64, want: 0}, // exactly at the clamp boundary
		{fire: 10, sw: 64, want: 0}, // back-date would be negative
		{fire: 0, sw: 1, want: 0},   // degenerate window
		{fire: 5, sw: 5, want: 1},   // first post-warmup fire index
	}
	for _, tc := range tests {
		if got := backdateStart(tc.fire, tc.sw); got != tc.want {
			t.Errorf("backdateStart(%d, %d) = %d, want %d", tc.fire, tc.sw, tc.want, got)
		}
	}
}

// TestEnergyDetectFiresFirstPostWarmupSample pins the earliest possible
// detection: a power step landing exactly on the first comparator check
// (index shortWindow) fires immediately, and the back-dated start is 1 —
// the detector can never report the unreachable negative-start region.
func TestEnergyDetectFiresFirstPostWarmupSample(t *testing.T) {
	const sw, lw = 8, 32
	power := make([]float64, 4*sw)
	for i := range power {
		power[i] = 1
	}
	for i := sw; i < len(power); i++ {
		power[i] = 100 // step exactly at the first post-warmup sample
	}
	start, found := EnergyDetect(power, lw, 3, sw)
	if !found || start != 1 {
		t.Fatalf("EnergyDetect = (%d, %v), want (1, true)", start, found)
	}
	pstart, pfound := energyDetectPrefix(dsp.PrefixSumInto(nil, power), lw, 3, sw)
	if pstart != start || pfound != found {
		t.Fatalf("prefix detector = (%d, %v), reference = (%d, %v)", pstart, pfound, start, found)
	}
}

// TestEnergyDetectPrefixShortBuffer mirrors TestEnergyDetectShorterThanWarmup
// for the prefix-sum detector, including the buffer-equals-window edge where
// warmup consumes every sample.
func TestEnergyDetectPrefixShortBuffer(t *testing.T) {
	for _, n := range []int{0, 1, 5, 32, 63, 64} {
		power := make([]float64, n)
		for i := range power {
			power[i] = 1
		}
		p := dsp.PrefixSumInto(nil, power)
		if _, found := energyDetectPrefix(p, 100, 3, 64); found {
			t.Errorf("len %d buffer shorter than the warmup window must not detect", n)
		}
		if _, found := EnergyDetect(power, 100, 3, 64); found {
			t.Errorf("len %d: reference detector disagrees", n)
		}
	}
}

// TestEnergyDetectPrefixMatchesReference sweeps window geometries — long
// window larger than the buffer, short window larger than the long one,
// steps at various positions, quiet buffers — and requires the prefix-sum
// detector to reproduce the reference decisions on every one.
func TestEnergyDetectPrefixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type geom struct{ n, lw, sw int }
	geoms := []geom{
		{n: 2000, lw: 496, sw: 124},
		{n: 2000, lw: 16, sw: 124}, // short window dwarfs the long one
		{n: 2000, lw: 4096, sw: 64},
		{n: 300, lw: 2, sw: 1},
		{n: 65, lw: 7, sw: 64},
		{n: 500, lw: 0, sw: 0}, // both clamped to minimums
	}
	for gi, g := range geoms {
		for trial := 0; trial < 40; trial++ {
			power := make([]float64, g.n)
			for i := range power {
				power[i] = testNoise * (0.5 + rng.Float64())
			}
			if trial%4 != 0 { // every 4th buffer stays noise-only
				at := rng.Intn(g.n)
				for i := at; i < g.n; i++ {
					power[i] += testNoise * (20 + 10*rng.Float64())
				}
			}
			start, found := EnergyDetect(power, g.lw, 3, g.sw)
			p := dsp.PrefixSumInto(nil, power)
			pstart, pfound := energyDetectPrefix(p, g.lw, 3, g.sw)
			if start != pstart || found != pfound {
				t.Fatalf("geom %d trial %d: reference (%d,%v) vs prefix (%d,%v)",
					gi, trial, start, found, pstart, pfound)
			}
		}
	}
}

// syncPair builds reference- and fast-path receivers over the same config.
func syncPair(t *testing.T, cfg Config) (ref, fast *Receiver) {
	t.Helper()
	refCfg := cfg
	refCfg.ReferenceSync = true
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ReferenceSync = false
	fast, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ref, fast
}

// TestSyncEquivalenceReceive is the receiver-level half of the tentpole
// guarantee: the fast sync path (prefix-sum detection, windowed envelope,
// coarse-to-fine alignment) and the reference path produce deeply equal
// Results — every field, including float statistics — across dense Gold
// collisions (direct and FFT alignment regimes), sparse 2NC sets, SIC,
// timing hints and noise-only buffers, with scratch reuse across calls.
func TestSyncEquivalenceReceive(t *testing.T) {
	gold31 := goldSet(t, 10)
	gold127 := gold127Set(t, 4)
	twonc, err := pn.New2NCSet(4)
	if err != nil {
		t.Fatal(err)
	}
	mkPayloads := func(n, l int) [][]byte {
		ps := make([][]byte, n)
		for i := range ps {
			p := make([]byte, l)
			for k := range p {
				p[k] = byte(31*i + 7*k + 5)
			}
			ps[i] = p
		}
		return ps
	}
	phased := func(n int, base float64) []complex128 {
		gs := make([]complex128, n)
		for i := range gs {
			phi := 2 * math.Pi * float64(i) / float64(n+1)
			gs[i] = amp(base+float64(i)) * complex(math.Cos(phi), math.Sin(phi))
		}
		return gs
	}
	lead := 60 * testSPC

	cases := []struct {
		name    string
		set     *pn.Set
		cfg     Config
		buf     []complex128
		nominal int // -1 → Receive
	}{}
	add := func(name string, set *pn.Set, cfg Config, buf []complex128, nominal int) {
		cases = append(cases, struct {
			name    string
			set     *pn.Set
			cfg     Config
			buf     []complex128
			nominal int
		}{name, set, cfg, buf, nominal})
	}

	base := func(set *pn.Set) Config {
		return Config{Codes: set, SamplesPerChip: testSPC, NoiseFloorW: testNoise, SearchChips: 1}
	}

	offs := []int{0, 1, -2, 3, 0, -1, 2, 0, 1, -3}
	add("gold31 10-tag collision", gold31, base(gold31),
		buildScenario(t, gold31, mkPayloads(10, 6), phased(10, 14), offs[:10], lead, 300), -1)
	add("gold31 hinted", gold31, base(gold31),
		buildScenario(t, gold31, mkPayloads(6, 4), phased(6, 16), offs[:6], lead, 200), lead)
	add("gold127 fft-align regime", gold127, base(gold127),
		buildScenario(t, gold127, mkPayloads(4, 5), phased(4, 18), offs[:4], lead, 250), -1)
	add("2nc sparse shift-structured", twonc, base(twonc),
		buildScenario(t, twonc, mkPayloads(4, 3), phased(4, 18), []int{0, 0, 0, 0}, lead, 200), lead)
	sicCfg := base(gold31)
	sicCfg.SIC = true
	add("sic near-far", gold31, sicCfg,
		buildScenario(t, gold31, mkPayloads(6, 4), phased(6, 12), offs[:6], lead, 250), -1)
	rng := rand.New(rand.NewSource(5))
	add("noise only", gold31, base(gold31), noiseOnly(rng, 20000, testNoise), -1)
	full := buildScenario(t, gold31, mkPayloads(3, 8), phased(3, 17), offs[:3], lead, 0)
	add("truncated mid-frame", gold31, base(gold31), full[:len(full)-len(full)/3], -1)
	deafCfg := base(gold31)
	deafCfg.SyncThresholdDB = 200
	deafCfg.ResyncFallback = true
	add("deaf resync fallback", gold31, deafCfg,
		buildScenario(t, gold31, mkPayloads(3, 5), phased(3, 16), offs[:3], lead, 200), lead)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, fast := syncPair(t, tc.cfg)
			recv := func(r *Receiver) Result {
				var res Result
				var err error
				if tc.nominal >= 0 {
					res, err = r.ReceiveAt(tc.buf, tc.nominal)
				} else {
					res, err = r.Receive(tc.buf)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := recv(ref)
			got := recv(fast)
			sameResult(t, tc.name, want, got)
			// Scratch reuse must not leak state between calls on either path.
			sameResult(t, tc.name+" ref rerun", want, recv(ref))
			sameResult(t, tc.name+" fast rerun", got, recv(fast))
			// Clones (the parallel-worker path) share templates and bank
			// spectra but must reproduce the original exactly.
			sameResult(t, tc.name+" fast clone", got, recv(fast.Clone()))
		})
	}
}

// TestFFTFallbackInstrumented forces the alignment sweep's filter-bank call
// to fail (a bank with more templates than the receiver has row scratch) and
// checks the previously silent direct-path fallback now shows up as a
// counter increment and a JSONL event — while still decoding identically to
// a healthy receiver.
func TestFFTFallbackInstrumented(t *testing.T) {
	const nTags = 4
	set := gold127Set(t, nTags)
	cfg := Config{
		Codes:          set,
		SamplesPerChip: testSPC,
		NoiseFloorW:    testNoise,
		SearchChips:    1,
		ReferenceSync:  true, // the reference alignment is the bank consumer
	}
	healthy, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alignCount := healthy.shortWindow() + 4*testSPC + 1
	if !healthy.bank.ShouldUseFFT(alignCount, nTags, false) {
		t.Fatal("alignment window no longer clears the FFT cutover; pick a longer code")
	}

	var buf bytes.Buffer
	sink := obs.NewSink(&buf, 1<<16)
	o := obs.New(obs.Config{Clock: obs.StepClock(time.Unix(0, 0), time.Microsecond), Sink: sink})
	cfg.Obs = o
	broken, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One extra template: CorrelateRealAll(ids=nil) then needs more rows
	// than the receiver grew, which errors after the cutover check.
	tmpls := make([][]float64, 0, nTags+1)
	tmpls = append(tmpls, broken.preambleTmpl...)
	tmpls = append(tmpls, broken.preambleTmpl[0])
	bank, err := dsp.NewFilterBank(tmpls)
	if err != nil {
		t.Fatal(err)
	}
	broken.bank = bank

	payloads := make([][]byte, nTags)
	gains := make([]complex128, nTags)
	offsets := make([]int, nTags)
	for i := range payloads {
		payloads[i] = []byte{byte(i), 0x5A, byte(7 * i)}
		gains[i] = amp(18)
	}
	lead := 60 * testSPC
	sig := buildScenario(t, set, payloads, gains, offsets, lead, 200)

	want, err := healthy.Receive(sig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := broken.Receive(sig)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "fallback decode", want, got)
	if n := o.Counter("rx.fft_fallbacks").Value(); n < 1 {
		t.Errorf("rx.fft_fallbacks = %d, want >= 1", n)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"rx_fft_fallback"`) || !strings.Contains(out, `"where":"align"`) {
		t.Errorf("event log missing rx_fft_fallback/align event:\n%s", out)
	}
}

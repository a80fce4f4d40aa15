package channel

import (
	"math"
	"math/rand"
	"testing"

	"cbma/internal/dsp"
)

func TestAWGNPowerCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const want = 2.5e-7
	x := make([]complex128, 200000)
	AWGN(rng, x, want)
	got := dsp.Energy(x) / float64(len(x))
	if got < want*0.97 || got > want*1.03 {
		t.Errorf("noise power %v, want ≈%v", got, want)
	}
}

func TestAWGNZeroPowerIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := []complex128{1, 2, 3}
	AWGN(rng, x, 0)
	if x[0] != 1 || x[1] != 2 || x[2] != 3 {
		t.Error("zero power must not modify samples")
	}
	AWGN(rng, x, -1)
	if x[0] != 1 {
		t.Error("negative power must not modify samples")
	}
}

// TestNoiseVectorLength fills a caller-made noise vector through AWGN: every
// one of its samples is drawn, none left at zero.
func TestNoiseVectorLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, 64)
	AWGN(rng, x, 1e-9)
	for i, v := range x {
		if v == 0 {
			t.Fatalf("sample %d of %d left at zero", i, len(x))
		}
	}
}

func TestWiFiInterfererDutyCycle(t *testing.T) {
	w := &WiFiInterferer{PowerDBm: -40, DutyCycle: 0.3, MeanBurstSec: 1e-4}
	rng := rand.New(rand.NewSource(4))
	const n = 500000
	x := make([]complex128, n)
	w.Apply(rng, x, 10e6)
	// Count samples that received interference.
	busy := 0
	for _, v := range x {
		if v != 0 {
			busy++
		}
	}
	frac := float64(busy) / n
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("busy fraction %v, want ≈0.3", frac)
	}
	// Power during busy periods should approximate PowerDBm.
	var acc float64
	for _, v := range x {
		if v != 0 {
			acc += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	gotDBm := dsp.DBm(acc / float64(busy))
	if math.Abs(gotDBm-(-40)) > 1 {
		t.Errorf("busy-period power %v dBm, want ≈-40", gotDBm)
	}
}

func TestWiFiInterfererDefaultsClamp(t *testing.T) {
	w := &WiFiInterferer{PowerDBm: -50, DutyCycle: 5} // clamps to 1
	rng := rand.New(rand.NewSource(5))
	x := make([]complex128, 1000)
	w.Apply(rng, x, 1e6)
	busy := 0
	for _, v := range x {
		if v != 0 {
			busy++
		}
	}
	if busy != len(x) {
		t.Errorf("duty 1 must keep channel always busy, got %d/%d", busy, len(x))
	}
}

func TestBluetoothInterfererHitRate(t *testing.T) {
	b := &BluetoothInterferer{PowerDBm: -45, HopPeriodSec: 1e-4, InBandProb: 0.25}
	rng := rand.New(rand.NewSource(6))
	const n = 400000
	const fs = 10e6
	x := make([]complex128, n)
	b.Apply(rng, x, fs)
	hopSamples := int(1e-4 * fs)
	hops := n / hopSamples
	hit := 0
	for h := 0; h < hops; h++ {
		if x[h*hopSamples] != 0 || x[h*hopSamples+1] != 0 {
			hit++
		}
	}
	frac := float64(hit) / float64(hops)
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("in-band hop fraction %v, want ≈0.25", frac)
	}
}

func TestBluetoothInterfererTonePower(t *testing.T) {
	b := &BluetoothInterferer{PowerDBm: -45, HopPeriodSec: 1, InBandProb: 1}
	rng := rand.New(rand.NewSource(7))
	x := make([]complex128, 10000)
	b.Apply(rng, x, 1e6)
	got := dsp.DBm(dsp.Energy(x) / float64(len(x)))
	if math.Abs(got-(-45)) > 0.5 {
		t.Errorf("tone power %v dBm, want -45", got)
	}
}

func TestExcitationGateDuty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 400000
	gate := ExcitationGateInto(nil, rng, n, 10e6, 2e-3, 1e-3)
	var on float64
	for _, v := range gate {
		if v != 0 && v != 1 {
			t.Fatal("gate must be binary")
		}
		on += v
	}
	frac := on / n
	if frac < 0.55 || frac > 0.78 {
		t.Errorf("on fraction %v, want ≈2/3", frac)
	}
}

func TestExcitationGateDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gate := ExcitationGateInto(nil, rng, 1000, 1e6, 0, 0)
	if len(gate) != 1000 {
		t.Fatalf("len %d", len(gate))
	}
}

func TestMultipathPreservesAveragePower(t *testing.T) {
	m := Multipath{Taps: 3, TapSpacingSec: 50e-9, DecayDB: 6}
	rng := rand.New(rand.NewSource(10))
	x := make([]complex128, 20000)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	inP := dsp.Energy(x) / float64(len(x))
	var acc float64
	const trials = 200
	for i := 0; i < trials; i++ {
		y := m.Apply(rng, x, 20e6)
		acc += dsp.Energy(y) / float64(len(y))
	}
	ratio := acc / trials / inP
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("multipath power ratio %v, want ≈1", ratio)
	}
}

func TestMultipathSingleTapIsScaledIdentity(t *testing.T) {
	m := Multipath{Taps: 1}
	rng := rand.New(rand.NewSource(11))
	x := []complex128{1, 2i, -3}
	y := m.Apply(rng, x, 1e6)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("single tap must be identity, sample %d: %v vs %v", i, y[i], x[i])
		}
	}
}

func TestMultipathZeroTapsClamps(t *testing.T) {
	m := Multipath{Taps: 0}
	rng := rand.New(rand.NewSource(12))
	coeffs, delays := m.realizeInto(nil, nil, rng, 1e6)
	if len(coeffs) != 1 || len(delays) != 1 {
		t.Fatalf("got %d taps, want 1", len(coeffs))
	}
}

func TestMultipathDelaysQuantize(t *testing.T) {
	m := Multipath{Taps: 3, TapSpacingSec: 1e-6, DecayDB: 3}
	rng := rand.New(rand.NewSource(13))
	_, delays := m.realizeInto(nil, nil, rng, 4e6)
	if delays[1] != 4 || delays[2] != 8 {
		t.Errorf("delays %v, want [0 4 8]", delays)
	}
}

// TestIntoFormsOverwriteReusedStorage is the reuse contract of the Into
// forms: writing into a dirty, oversized buffer gives exactly what a fresh
// call on the same stream gives — the round arenas rely on it.
func TestIntoFormsOverwriteReusedStorage(t *testing.T) {
	x := make([]complex128, 3000)
	for i := range x {
		x[i] = complex(float64(i%7), -float64(i%5))
	}
	dirtyC := func() []complex128 {
		d := make([]complex128, 4000)
		for i := range d {
			d[i] = complex(9, 9)
		}
		return d
	}
	for _, taps := range []int{1, 3, 10} { // 10 exceeds the stack tap buffer
		m := Multipath{Taps: taps, TapSpacingSec: 50e-9, DecayDB: 3}
		want := m.Apply(rand.New(rand.NewSource(21)), x, 20e6)
		got := m.ApplyInto(dirtyC(), rand.New(rand.NewSource(21)), x, 20e6)
		if len(got) != len(want) {
			t.Fatalf("taps=%d: ApplyInto len %d, want %d", taps, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("taps=%d: sample %d: ApplyInto %v, Apply %v", taps, i, got[i], want[i])
			}
		}
	}
	want := ExcitationGateInto(nil, rand.New(rand.NewSource(22)), 3000, 1e6, 2e-4, 1e-4)
	dirty := make([]float64, 4000)
	for i := range dirty {
		dirty[i] = 7
	}
	got := ExcitationGateInto(dirty, rand.New(rand.NewSource(22)), 3000, 1e6, 2e-4, 1e-4)
	if len(got) != len(want) {
		t.Fatalf("ExcitationGateInto len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gate sample %d: Into %v, fresh %v", i, got[i], want[i])
		}
	}
}

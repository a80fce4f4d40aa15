package dsp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUpsampleHold(t *testing.T) {
	x := []complex128{1, 2i}
	got, err := UpsampleHold(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{1, 1, 1, 2i, 2i, 2i}
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestUpsampleHoldBadFactor(t *testing.T) {
	if _, err := UpsampleHold([]complex128{1}, 0); err != ErrBadFactor {
		t.Fatalf("got %v, want ErrBadFactor", err)
	}
	if _, err := UpsampleHoldBits([]byte{1}, -1); err != ErrBadFactor {
		t.Fatalf("got %v, want ErrBadFactor", err)
	}
}

func TestUpsampleHoldBits(t *testing.T) {
	got, err := UpsampleHoldBits([]byte{1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bit %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestDownsampleInvertsUpsample(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		factor := 1 + r.Intn(8)
		x := randomVector(r, n)
		up, err := UpsampleHold(x, factor)
		if err != nil {
			return false
		}
		down, err := Downsample(up, factor, 0)
		if err != nil {
			return false
		}
		if len(down) != len(x) {
			return false
		}
		for i := range x {
			if down[i] != x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDownsampleOffset(t *testing.T) {
	x := []complex128{0, 1, 2, 3, 4, 5}
	got, err := Downsample(x, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDownsampleOffsetPastEnd(t *testing.T) {
	got, err := Downsample([]complex128{1, 2}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("got %v, want nil", got)
	}
}

func TestDownsampleNegativeOffsetRejected(t *testing.T) {
	// A negative offset used to be silently clamped to 0, hiding caller
	// bugs; it is now a typed error like a bad factor.
	if _, err := Downsample([]complex128{1, 2, 3}, 2, -4); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("Downsample(offset=-4) err = %v, want ErrBadOffset", err)
	}
	if _, err := Downsample([]complex128{1, 2, 3}, 0, 1); !errors.Is(err, ErrBadFactor) {
		t.Fatalf("Downsample(factor=0) err = %v, want ErrBadFactor", err)
	}
	got, err := Downsample([]complex128{1, 2, 3}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("got %v, want [1 3]", got)
	}
}

func TestDownsampleSumInto(t *testing.T) {
	x := []float64{1, 3, 5, 7, 100}
	got, err := DownsampleSumInto(nil, x, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 12} // trailing partial block dropped
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("got %v, want %v", got, want)
	}
	// Reuse: a larger scratch is resliced, not reallocated.
	scratch := make([]float64, 8)
	got, err = DownsampleSumInto(scratch, x, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 116 || &got[0] != &scratch[0] {
		t.Errorf("scratch reuse: got %v (shared=%v)", got, len(got) > 0 && &got[0] == &scratch[0])
	}
	if _, err := DownsampleSumInto(nil, x, 0); !errors.Is(err, ErrBadFactor) {
		t.Fatalf("factor 0: err = %v, want ErrBadFactor", err)
	}
}

func TestDownsampleMean(t *testing.T) {
	x := []float64{1, 3, 5, 7, 100}
	got, err := DownsampleMean(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 6} // trailing partial block dropped
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !almostEqual(got[i], want[i], floatTol) {
			t.Errorf("block %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFractionalDelayIntegerMatchesShift(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	x := randomVector(r, 30)
	fd := FractionalDelay(x, 4)
	si := ShiftInt(x, 4)
	for i := range x {
		if !complexAlmostEqual(fd[i], si[i], 1e-12) {
			t.Fatalf("sample %d: %v vs %v", i, fd[i], si[i])
		}
	}
}

func TestFractionalDelayZero(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	x := randomVector(r, 10)
	got := FractionalDelay(x, 0)
	for i := range x {
		if got[i] != x[i] {
			t.Fatal("zero delay must be identity")
		}
	}
	// Must be a copy, not an alias.
	got[0] = 123
	if x[0] == 123 {
		t.Fatal("FractionalDelay must not alias its input")
	}
}

func TestFractionalDelayHalfSample(t *testing.T) {
	x := []complex128{0, 2, 4, 2, 0}
	got := FractionalDelay(x, 0.5)
	// Sample i is the average of x[i] and x[i-1].
	want := []complex128{0, 1, 3, 3, 1}
	for i := range want {
		if !complexAlmostEqual(got[i], want[i], 1e-12) {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestShiftIntAdvance(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	got := ShiftInt(x, -2)
	want := []complex128{3, 4, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestShiftIntRoundTripEnergyProperty(t *testing.T) {
	// Delaying then advancing loses only the samples pushed off the end.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(40)
		d := r.Intn(5)
		x := randomVector(r, n)
		back := ShiftInt(ShiftInt(x, d), -d)
		for i := 0; i < n-d; i++ {
			if back[i] != x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFractionalDelayInPlaceBitExact pins the in-place filter to
// FractionalDelay bit for bit, including the signed zeros the peeled first
// sample must reproduce.
func TestFractionalDelayInPlaceBitExact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(5))
	x := []complex128{complex(negZero, negZero), complex(negZero, 1), 3 - 2i}
	for i := 0; i < 64; i++ {
		x = append(x, complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	for _, d := range []float64{0.25, 0.5, 0.999} {
		for _, in := range [][]complex128{x, x[:1], x[1:2]} {
			want := FractionalDelay(in, d)
			got := append([]complex128(nil), in...)
			FractionalDelayInPlace(got, d)
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("d=%v len=%d sample %d: in place %v, reference %v", d, len(in), i, got[i], want[i])
				}
			}
		}
	}
	FractionalDelayInPlace(nil, 0.5) // empty input is a no-op
}

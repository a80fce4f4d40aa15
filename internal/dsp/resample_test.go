package dsp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// FractionalDelay is the allocating reference form of FractionalDelayInPlace:
// it delays x by d ≥ 0 samples with linear interpolation between x[j-1] and
// x[j], padding the head with zeros.
func FractionalDelay(x []complex128, d float64) []complex128 {
	if d <= 0 {
		out := make([]complex128, len(x))
		copy(out, x)
		return out
	}
	whole := int(d)
	frac := d - float64(whole)
	out := make([]complex128, len(x))
	for i := range out {
		j := i - whole
		var a, b complex128
		if j-1 >= 0 && j-1 < len(x) {
			a = x[j-1]
		}
		if j >= 0 && j < len(x) {
			b = x[j]
		}
		out[i] = b*complex(1-frac, 0) + a*complex(frac, 0)
	}
	return out
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

// The known-answer tests below pin the FractionalDelay reference itself,
// so that TestFractionalDelayInPlaceBitExact checks the in-place kernel
// against known-good values.
func TestFractionalDelayIntegerMatchesShift(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	x := randomVector(r, 30)
	fd := FractionalDelay(x, 4)
	for i := range x {
		var want complex128 // zero-filled head
		if i >= 4 {
			want = x[i-4]
		}
		if !complexAlmostEqual(fd[i], want, 1e-12) {
			t.Fatalf("sample %d: %v vs %v", i, fd[i], want)
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

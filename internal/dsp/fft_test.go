package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// fft transforms a copy of x (length a power of two) through the cached
// plan the filter bank runs on; inverse includes the 1/N scaling. The
// identity tests below check that plan against the DFT's defining
// properties.
func fft(x []complex128, inverse bool) []complex128 {
	out := append([]complex128(nil), x...)
	p := planFor(len(out))
	if inverse {
		p.inverseInPlace(out)
	} else {
		p.forwardInPlace(out)
	}
	return out
}

func TestNextPowerOfTwo(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
	}
	for _, tc := range tests {
		if got := NextPowerOfTwo(tc.n); got != tc.want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	for i, v := range fft(x, false) {
		if !complexAlmostEqual(v, 1, 1e-12) {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A tone at bin k concentrates all energy in that bin.
	const n, k = 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*k*float64(i)/n))
	}
	for i, v := range fft(x, false) {
		mag := cmplx.Abs(v)
		if i == k {
			if !almostEqual(mag, n, 1e-9) {
				t.Errorf("bin %d magnitude %v, want %d", i, mag, n)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d magnitude %v, want ~0", i, mag)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 16, 128, 1024} {
		x := randomVector(r, n)
		back := fft(fft(x, false), true)
		for i := range x {
			if !complexAlmostEqual(back[i], x[i], 1e-9) {
				t.Fatalf("n=%d sample %d: %v != %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	x := randomVector(r, 256)
	f := fft(x, false)
	// Parseval: Σ|x|² = (1/N) Σ|X|².
	if !almostEqual(Energy(x), Energy(f)/256, 1e-6) {
		t.Errorf("Parseval violated: time %v vs freq %v", Energy(x), Energy(f)/256)
	}
}

func TestFFTLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randomVector(r, 64)
	b := randomVector(r, 64)
	sum := make([]complex128, len(a))
	for i := range a {
		sum[i] = a[i] + b[i]
	}
	fa, fb, fsum := fft(a, false), fft(b, false), fft(sum, false)
	for i := range fsum {
		if !complexAlmostEqual(fsum[i], fa[i]+fb[i], 1e-9) {
			t.Fatalf("bin %d: FFT not linear", i)
		}
	}
}

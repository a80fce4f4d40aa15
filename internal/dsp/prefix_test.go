package dsp

import (
	"math/rand"
	"testing"
)

func TestPrefixSumInto(t *testing.T) {
	x := []float64{2, -1, 3, 0.5}
	p := PrefixSumInto(nil, x)
	want := []float64{0, 2, 1, 4, 4.5}
	if len(p) != len(want) {
		t.Fatalf("len = %d, want %d", len(p), len(want))
	}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("p[%d] = %v, want %v", i, p[i], want[i])
		}
	}
	// Empty input still yields the leading zero.
	if p := PrefixSumInto(nil, nil); len(p) != 1 || p[0] != 0 {
		t.Errorf("empty input: %v, want [0]", p)
	}
	// Scratch reuse: adequate capacity is resliced in place.
	scratch := make([]float64, 16)
	p = PrefixSumInto(scratch, x)
	if &p[0] != &scratch[0] {
		t.Error("adequate scratch was reallocated")
	}
}

// TestWindowSumMatchesDirect checks every window sum of a random buffer,
// taken as the prefix difference p[hi] − p[lo], against the direct loop. On
// integer-valued inputs that difference is exact, which is the property the
// frame-sync fuzz target leans on.
func TestWindowSumMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ints := make([]float64, 64)
	for i := range ints {
		ints[i] = float64(rng.Intn(1 << 16))
	}
	p := PrefixSumInto(nil, ints)
	for lo := 0; lo <= len(ints); lo++ {
		for hi := lo; hi <= len(ints); hi++ {
			var want float64
			for _, v := range ints[lo:hi] {
				want += v
			}
			if got := p[hi] - p[lo]; got != want {
				t.Fatalf("window [%d,%d) = %v, want %v", lo, hi, got, want)
			}
		}
	}
}

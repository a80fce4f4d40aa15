package dsp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// MovingAverage is the batch reference the streaming MovingAverager is
// checked against: output sample i is the mean of the w most recent inputs
// (fewer at the start, where the window has not yet filled).
func MovingAverage(x []float64, w int) []float64 {
	out := make([]float64, len(x))
	if w <= 1 {
		copy(out, x)
		return out
	}
	var acc float64
	for i := range x {
		acc += x[i]
		if i >= w {
			acc -= x[i-w]
		}
		n := i + 1
		if n > w {
			n = w
		}
		out[i] = acc / float64(n)
	}
	return out
}

// The known-answer tests below pin the batch reference itself, so that
// TestMovingAveragerMatchesBatch checks the streaming filter against
// known-good values.
func TestMovingAverageWindowOne(t *testing.T) {
	x := []float64{3, 1, 4, 1, 5}
	got := MovingAverage(x, 1)
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("w=1 must be identity; sample %d = %v", i, got[i])
		}
	}
}

func TestMovingAverageKnown(t *testing.T) {
	x := []float64{2, 4, 6, 8}
	got := MovingAverage(x, 2)
	want := []float64{2, 3, 5, 7}
	for i := range want {
		if !almostEqual(got[i], want[i], floatTol) {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMovingAverageConstantInput(t *testing.T) {
	x := make([]float64, 50)
	for i := range x {
		x[i] = 7.5
	}
	got := MovingAverage(x, 8)
	for i, v := range got {
		if !almostEqual(v, 7.5, floatTol) {
			t.Fatalf("constant input must stay constant; sample %d = %v", i, v)
		}
	}
}

func TestMovingAverageSmoothsStep(t *testing.T) {
	// A step from 0 to 1 should ramp over exactly w samples.
	x := make([]float64, 40)
	for i := 20; i < 40; i++ {
		x[i] = 1
	}
	const w = 10
	got := MovingAverage(x, w)
	if got[19] != 0 {
		t.Errorf("before step: %v, want 0", got[19])
	}
	if !almostEqual(got[20], 1.0/w, floatTol) {
		t.Errorf("first step sample: %v, want %v", got[20], 1.0/w)
	}
	if !almostEqual(got[29], 1, floatTol) {
		t.Errorf("after w samples: %v, want 1", got[29])
	}
}

func TestMovingAveragerMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		w := 1 + r.Intn(12)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		batch := MovingAverage(x, w)
		m := NewMovingAverager(w)
		for i, v := range x {
			if got := m.Push(v); !almostEqual(got, batch[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewMovingAveragerClampsWindow(t *testing.T) {
	m := NewMovingAverager(0)
	if got := m.Push(3); got != 3 {
		t.Errorf("clamped window: got %v, want 3", got)
	}
}

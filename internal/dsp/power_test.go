package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDBKnownValues(t *testing.T) {
	tests := []struct {
		ratio float64
		want  float64
	}{
		{1, 0}, {10, 10}, {100, 20}, {0.1, -10}, {2, 3.0102999566},
	}
	for _, tc := range tests {
		if got := DB(tc.ratio); !almostEqual(got, tc.want, 1e-6) {
			t.Errorf("DB(%v) = %v, want %v", tc.ratio, got, tc.want)
		}
	}
}

func TestDBNonPositive(t *testing.T) {
	if got := DB(0); !math.IsInf(got, -1) {
		t.Errorf("DB(0) = %v, want -Inf", got)
	}
	if got := DB(-5); !math.IsInf(got, -1) {
		t.Errorf("DB(-5) = %v, want -Inf", got)
	}
}

func TestDBRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		if math.IsNaN(db) || math.IsInf(db, 0) {
			return true
		}
		db = math.Mod(db, 200) // keep within float range
		return almostEqual(DB(FromDB(db)), db, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBmRoundTrip(t *testing.T) {
	for _, dbm := range []float64{-90, -30, 0, 20} {
		w := FromDBm(dbm)
		if got := DBm(w); !almostEqual(got, dbm, 1e-9) {
			t.Errorf("DBm(FromDBm(%v)) = %v", dbm, got)
		}
	}
	// 0 dBm is one milliwatt.
	if got := FromDBm(0); !almostEqual(got, 1e-3, 1e-12) {
		t.Errorf("FromDBm(0) = %v, want 1e-3", got)
	}
}

func TestSNRdB(t *testing.T) {
	// total = signal + noise; with signal = 9·noise, SNR ≈ 9.54 dB.
	got := SNRdB(10, 1)
	if !almostEqual(got, DB(9), 1e-9) {
		t.Errorf("SNRdB(10,1) = %v, want %v", got, DB(9))
	}
	if got := SNRdB(0.5, 1); !math.IsInf(got, -1) {
		t.Errorf("below noise floor: %v, want -Inf", got)
	}
	if got := SNRdB(1, 0); !math.IsInf(got, 1) {
		t.Errorf("zero noise: %v, want +Inf", got)
	}
}

// TestSNRdBQuadrants pins the guard order over the sign quadrants of
// (totalPower, noisePower). The no-signal check must win: SNRdB(0, 0) is
// -Inf (nothing measured), not +Inf from the zero-noise short-circuit.
func TestSNRdBQuadrants(t *testing.T) {
	negInf, posInf := math.Inf(-1), math.Inf(1)
	tests := []struct {
		name         string
		total, noise float64
		want         float64
	}{
		{"zero measurement, zero noise", 0, 0, negInf},
		{"positive signal, zero noise", 1, 0, posInf},
		{"positive signal, negative noise estimate", 1, -0.5, posInf},
		{"zero measurement, positive noise", 0, 1, negInf},
		{"at the noise floor", 1, 1, negInf},
		{"below the noise floor", 0.5, 1, negInf},
		{"negative measurement, zero noise", -1, 0, negInf},
		{"negative measurement, negative noise, no excess", -2, -1, negInf},
		{"above a positive floor", 10, 1, DB(9)},
	}
	for _, tc := range tests {
		got := SNRdB(tc.total, tc.noise)
		if math.IsInf(tc.want, -1) && !math.IsInf(got, -1) {
			t.Errorf("%s: SNRdB(%v, %v) = %v, want -Inf", tc.name, tc.total, tc.noise, got)
			continue
		}
		if math.IsInf(tc.want, 1) && !math.IsInf(got, 1) {
			t.Errorf("%s: SNRdB(%v, %v) = %v, want +Inf", tc.name, tc.total, tc.noise, got)
			continue
		}
		if !math.IsInf(tc.want, 0) && !almostEqual(got, tc.want, 1e-9) {
			t.Errorf("%s: SNRdB(%v, %v) = %v, want %v", tc.name, tc.total, tc.noise, got, tc.want)
		}
	}
}

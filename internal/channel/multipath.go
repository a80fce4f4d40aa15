package channel

import (
	"math"
	"math/rand"

	"cbma/internal/dsp"
)

// Multipath is a tapped-delay-line multipath profile with exponentially
// decaying tap powers. At CBMA's microsecond chips an office's ~50 ns RMS
// delay spread is far below a chip, so flat (single-tap) fading dominates;
// this model exists for the "challenging indoor scenarios with rich
// multipath" stress runs where echoes stretch toward a chip period.
type Multipath struct {
	// Taps is the number of echoes including the direct path (≥1).
	Taps int
	// TapSpacingSec is the delay between consecutive taps.
	TapSpacingSec float64
	// DecayDB is the per-tap power decay.
	DecayDB float64
}

// DefaultMultipath returns a mild 3-tap office profile.
func DefaultMultipath() Multipath {
	return Multipath{Taps: 3, TapSpacingSec: 50e-9, DecayDB: 6}
}

// Realize draws complex tap coefficients (first tap deterministic unit,
// later taps Rayleigh with decaying power) and returns them with their
// integer sample delays at the given rate. Taps that round to the same
// sample delay merge implicitly when applied.
func (m Multipath) Realize(rng *rand.Rand, sampleRateHz float64) (coeffs []complex128, delays []int) {
	return m.realizeInto(nil, nil, rng, sampleRateHz)
}

// realizeInto is Realize appending to caller storage (cleared first).
func (m Multipath) realizeInto(coeffs []complex128, delays []int, rng *rand.Rand, sampleRateHz float64) ([]complex128, []int) {
	taps := m.Taps
	if taps < 1 {
		taps = 1
	}
	coeffs = append(coeffs[:0], 1)
	delays = append(delays[:0], 0)
	for k := 1; k < taps; k++ {
		p := dsp.FromDB(-m.DecayDB * float64(k))
		sigma := math.Sqrt(p / 2)
		coeffs = append(coeffs, complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64()))
		delays = append(delays, int(math.Round(m.TapSpacingSec*float64(k)*sampleRateHz)))
	}
	return coeffs, delays
}

// Apply convolves samples with a realized tap set, returning a new vector of
// the same length (echoes beyond the window are truncated). Total power is
// normalized so multipath redistributes rather than adds energy on average.
func (m Multipath) Apply(rng *rand.Rand, samples []complex128, sampleRateHz float64) []complex128 {
	return m.ApplyInto(nil, rng, samples, sampleRateHz)
}

// ApplyInto is Apply writing the convolved samples into dst (grown as
// needed, fully overwritten) and returning it. dst must not alias samples.
// Profiles of up to eight taps realize into stack storage, so with a
// large enough dst the call does not allocate.
func (m Multipath) ApplyInto(dst []complex128, rng *rand.Rand, samples []complex128, sampleRateHz float64) []complex128 {
	var cbuf [8]complex128
	var dbuf [8]int
	coeffs, delays := m.realizeInto(cbuf[:0], dbuf[:0], rng, sampleRateHz)
	var norm float64
	for _, c := range coeffs {
		norm += real(c)*real(c) + imag(c)*imag(c)
	}
	if norm == 0 {
		norm = 1
	}
	scale := complex(1/math.Sqrt(norm), 0)
	if cap(dst) < len(samples) {
		dst = make([]complex128, len(samples))
	}
	out := dst[:len(samples)]
	for i := range out {
		out[i] = 0
	}
	for k, c := range coeffs {
		c *= scale
		d := delays[k]
		for i := d; i < len(samples); i++ {
			out[i] += samples[i-d] * c
		}
	}
	return out
}

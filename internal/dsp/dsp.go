// Package dsp holds the signal-processing kernels the CBMA simulator runs:
// the receiver's matched-filter bank (FilterBank, the one correlator, with
// its radix-2 FFT fast path), the moving-average and prefix-sum energy
// detectors, envelope and power helpers, chip-rate block sums, and the
// in-place fractional delay the channel applies per tag.
//
// The routines keep no global configuration; apart from the immutable FFT
// plan cache, every function is a pure transformation of its arguments, so
// results are deterministic whatever the call order.
package dsp

import (
	"errors"
	"math"
)

// ErrEmptyInput is returned by routines that cannot operate on a zero-length
// sample vector.
var ErrEmptyInput = errors.New("dsp: empty input")

// ErrLengthMismatch is returned when two vectors that must have equal length
// do not.
var ErrLengthMismatch = errors.New("dsp: length mismatch")

// MagnitudeInto writes |x[i]| into dst, growing it as needed, and returns
// the filled slice. Receivers reuse one buffer across calls through this.
//
//cbma:hotpath
func MagnitudeInto(dst []float64, x []complex128) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for i := range x {
		// math.Hypot matches cmplx.Abs bit-for-bit.
		dst[i] = math.Hypot(real(x[i]), imag(x[i]))
	}
	return dst
}

// MagSquaredInto is MagnitudeInto for instantaneous power |x[i]|².
//
//cbma:hotpath
func MagSquaredInto(dst []float64, x []complex128) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for i := range x {
		re, im := real(x[i]), imag(x[i])
		dst[i] = re*re + im*im
	}
	return dst
}

// DotReal returns the real-valued inner product Σ a[i]·b[i] of two real
// vectors.
func DotReal(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	var acc float64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc, nil
}

// Energy returns the total energy Σ |x[i]|² of the vector.
func Energy(x []complex128) float64 {
	var acc float64
	for i := range x {
		re, im := real(x[i]), imag(x[i])
		acc += re*re + im*im
	}
	return acc
}

package dsp

import (
	"math"
	"math/bits"
	"sync"
)

// NextPowerOfTwo returns the smallest power of two ≥ n (minimum 1).
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// fftPlan caches the bit-reversal shift and twiddle table for one transform
// size. Plans are immutable after construction and shared process-wide, so
// concurrent transforms of the same size are safe.
type fftPlan struct {
	n     int
	shift uint
	// w[k] = exp(-2πi·k/n) for k < n/2; stage `size` butterflies index it
	// at stride n/size. The inverse transform conjugates on the fly.
	w []complex128
}

// fftPlans maps transform size → *fftPlan.
var fftPlans sync.Map

func planFor(n int) *fftPlan {
	if p, ok := fftPlans.Load(n); ok {
		return p.(*fftPlan)
	}
	p := &fftPlan{n: n, shift: 64 - uint(bits.Len(uint(n-1)))}
	p.w = make([]complex128, n/2)
	for k := range p.w {
		theta := -2 * math.Pi * float64(k) / float64(n)
		p.w[k] = complex(math.Cos(theta), math.Sin(theta))
	}
	actual, _ := fftPlans.LoadOrStore(n, p)
	return actual.(*fftPlan)
}

// bitReverseInPlace permutes buf into bit-reversed order.
//
//cbma:hotpath
func (p *fftPlan) bitReverseInPlace(buf []complex128) {
	for i := range buf {
		j := int(bits.Reverse64(uint64(i)) >> p.shift)
		if j > i {
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
}

// butterflies runs the radix-2 stages in place; buf must already be in
// bit-reversed order.
//
//cbma:hotpath
func (p *fftPlan) butterflies(buf []complex128, inverse bool) {
	n := p.n
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			if inverse {
				for k := 0; k < half; k++ {
					w := p.w[k*stride]
					w = complex(real(w), -imag(w))
					a := buf[start+k]
					b := buf[start+k+half] * w
					buf[start+k] = a + b
					buf[start+k+half] = a - b
				}
			} else {
				for k := 0; k < half; k++ {
					w := p.w[k*stride]
					a := buf[start+k]
					b := buf[start+k+half] * w
					buf[start+k] = a + b
					buf[start+k+half] = a - b
				}
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range buf {
			buf[i] *= inv
		}
	}
}

// forwardInPlace / inverseInPlace transform buf (length p.n) in place. The
// inverse includes the 1/N scaling.
//
//cbma:hotpath
func (p *fftPlan) forwardInPlace(buf []complex128) {
	p.bitReverseInPlace(buf)
	p.butterflies(buf, false)
}

//cbma:hotpath
func (p *fftPlan) inverseInPlace(buf []complex128) {
	p.bitReverseInPlace(buf)
	p.butterflies(buf, true)
}

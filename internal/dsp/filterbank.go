package dsp

import (
	"math/bits"
	"sync"
)

// FilterBank is a matched-filter bank: a set of equal-length real templates
// whose sliding correlations against a shared input are evaluated together.
// It is the package's one correlator: the CBMA receiver runs its envelope
// alignment sweep (CorrelateRealAll) and its coherent preamble detection
// (CorrelateAll) through a bank over every code's preamble template, and a
// single-template correlation is a query with one id. On the
// frequency-domain path the template spectra are precomputed once, the
// input block is transformed once and shared by every template, long inputs
// stream through bounded overlap-add blocks, and all scratch buffers are
// reused across queries. Correlate[Real]All fall back to the direct
// time-domain loops when the cost model says the FFT does not pay
// (ShouldUseFFT), so small queries stay bit-identical with the naive
// implementation.
//
// A FilterBank is not safe for concurrent use: queries share the scratch
// buffers. The precomputed spectra live in a lock-guarded cache that Clone
// shares across banks, so a family of clones computes each template's
// forward transform once per size and still runs queries in parallel.
type FilterBank struct {
	m     int
	tmpls [][]float64
	// all is the identity selection used when callers pass ids == nil.
	all []int
	// spectra is the frequency-domain template cache, shared with every
	// clone of this bank.
	spectra *bankSpectra
	// in holds the chunk spectrum, prod the per-template product/IFFT, and
	// rspan the complex embedding of real-input spans.
	in, prod, rspan []complex128
}

// bankSpectra caches freq[size][id] = conj(FFT(template id zero-padded to
// size)), built lazily per transform size (queries of different lag counts
// prefer different block sizes). Each spectrum slice is immutable once
// published, so readers share them freely; the lock only guards the map.
type bankSpectra struct {
	mu   sync.RWMutex
	freq map[int][][]complex128
}

// NewFilterBank builds a bank over the given templates, which must all have
// the same non-zero length. The template slices are retained (not copied)
// for the direct path; callers must not mutate them afterwards.
func NewFilterBank(templates [][]float64) (*FilterBank, error) {
	if len(templates) == 0 || len(templates[0]) == 0 {
		return nil, ErrEmptyInput
	}
	m := len(templates[0])
	for _, t := range templates {
		if len(t) != m {
			return nil, ErrLengthMismatch
		}
	}
	all := make([]int, len(templates))
	for i := range all {
		all[i] = i
	}
	return &FilterBank{
		m:       m,
		tmpls:   templates,
		all:     all,
		spectra: &bankSpectra{freq: make(map[int][][]complex128)},
	}, nil
}

// Clone returns a bank over fb's templates that shares the precomputed
// frequency-domain spectra but owns fresh scratch buffers, so the clone and
// fb (and further clones) may run queries concurrently. Cloning is O(1) —
// no template validation or transform work is repeated.
func (fb *FilterBank) Clone() *FilterBank {
	return &FilterBank{m: fb.m, tmpls: fb.tmpls, all: fb.all, spectra: fb.spectra}
}

// blocking picks the FFT size and block count for a query of count lags:
// a single transform when the whole span fits in a block no larger than the
// streaming size, otherwise overlap-add blocks of ~4× the template length.
func (fb *FilterBank) blocking(count int) (size, blocks int) {
	span := count + fb.m - 1
	size = NextPowerOfTwo(4 * fb.m)
	if s := NextPowerOfTwo(span); s < size {
		size = s
	}
	step := size - fb.m + 1
	blocks = (span + step - 1) / step
	return size, blocks
}

// ShouldUseFFT reports whether the frequency-domain path is expected to beat
// the direct loops for a query of count lags over nTemplates templates.
// complexInput doubles the direct cost (complex samples against a real
// template cost two multiply-adds per tap).
//
// The model counts direct work as count·m·nTemplates inner steps and FFT
// work as, per block, one shared forward transform plus one product+inverse
// transform per template, with a butterfly weighted at ~3 inner steps. It is
// intentionally conservative: near the crossover the direct path wins ties,
// keeping small default configurations on the bit-identical loop.
func (fb *FilterBank) ShouldUseFFT(count, nTemplates int, complexInput bool) bool {
	if count <= 0 || nTemplates <= 0 || fb.m < 64 {
		return false
	}
	direct := float64(count) * float64(fb.m) * float64(nTemplates)
	if complexInput {
		direct *= 2
	}
	size, blocks := fb.blocking(count)
	logSize := float64(bits.Len(uint(size - 1)))
	fftCost := float64(blocks) * float64(size) *
		(float64(1+nTemplates)*logSize*3 + float64(nTemplates))
	return direct > fftCost
}

// spectraFor returns the per-template conjugated spectra at the given
// transform size, computing and caching them on first use. The cache is
// shared across clones: concurrent first uses of the same size may both
// compute it, but the results are identical and publication is atomic under
// the lock, so every reader observes a complete spectrum set.
func (fb *FilterBank) spectraFor(size int) [][]complex128 {
	fb.spectra.mu.RLock()
	s, ok := fb.spectra.freq[size]
	fb.spectra.mu.RUnlock()
	if ok {
		return s
	}
	p := planFor(size)
	specs := make([][]complex128, len(fb.tmpls))
	for id, t := range fb.tmpls {
		s := make([]complex128, size)
		for i, v := range t {
			s[i] = complex(v, 0)
		}
		p.forwardInPlace(s)
		for i := range s {
			s[i] = complex(real(s[i]), -imag(s[i]))
		}
		specs[id] = s
	}
	fb.spectra.mu.Lock()
	if prev, ok := fb.spectra.freq[size]; ok {
		specs = prev // another clone won the race; keep one canonical set
	} else {
		fb.spectra.freq[size] = specs
	}
	fb.spectra.mu.Unlock()
	return specs
}

// scratch resizes the shared chunk buffers to the given transform size.
func (fb *FilterBank) scratch(size int) (in, prod []complex128) {
	if cap(fb.in) < size {
		fb.in = make([]complex128, size)
		fb.prod = make([]complex128, size)
	}
	return fb.in[:size], fb.prod[:size]
}

// CorrelateAll computes rows[j][k] = Σ_i x[lo+k+i] · t_{ids[j]}[i] for every
// lag k in 0 … count-1 — the sliding correlation of complex samples against
// each selected real template. ids == nil selects every template; rows must
// hold len(ids) slices of length ≥ count (they are overwritten, and rows[j]
// beyond count is untouched). The span x[lo : lo+count+m-1] must be in
// range.
//
//cbma:hotpath
func (fb *FilterBank) CorrelateAll(x []complex128, lo, count int, ids []int, rows [][]complex128) error {
	if ids == nil {
		ids = fb.all
	}
	if err := fb.checkQuery(len(x), lo, count, len(ids), len(rows)); err != nil {
		return err
	}
	if !fb.ShouldUseFFT(count, len(ids), true) {
		for j, id := range ids {
			t := fb.tmpls[id]
			row := rows[j]
			for k := 0; k < count; k++ {
				var re, im float64
				win := x[lo+k : lo+k+fb.m]
				for i, v := range t {
					re += real(win[i]) * v
					im += imag(win[i]) * v
				}
				row[k] = complex(re, im)
			}
		}
		return nil
	}
	fb.overlapAdd(x[lo:lo+count+fb.m-1], count, ids, nil, rows)
	return nil
}

// CorrelateRealAll is CorrelateAll for a real input vector (the receiver's
// magnitude envelope): rows[j][k] = Σ_i x[lo+k+i] · t_{ids[j]}[i].
//
//cbma:hotpath
func (fb *FilterBank) CorrelateRealAll(x []float64, lo, count int, ids []int, rows [][]float64) error {
	if ids == nil {
		ids = fb.all
	}
	if err := fb.checkQuery(len(x), lo, count, len(ids), len(rows)); err != nil {
		return err
	}
	if !fb.ShouldUseFFT(count, len(ids), false) {
		for j, id := range ids {
			t := fb.tmpls[id]
			row := rows[j]
			for k := 0; k < count; k++ {
				var acc float64
				win := x[lo+k : lo+k+fb.m]
				for i, v := range t {
					acc += win[i] * v
				}
				row[k] = acc
			}
		}
		return nil
	}
	// Embed the real span into the complex chunk path; the imaginary parts
	// stay zero so the rows' real parts carry the answer.
	span := x[lo : lo+count+fb.m-1]
	if cap(fb.rspan) < len(span) {
		fb.rspan = make([]complex128, len(span))
	}
	cspan := fb.rspan[:len(span)]
	for i, v := range span {
		cspan[i] = complex(v, 0)
	}
	fb.overlapAdd(cspan, count, ids, rows, nil)
	return nil
}

func (fb *FilterBank) checkQuery(n, lo, count, nids, nrows int) error {
	if count <= 0 {
		return ErrEmptyInput
	}
	if lo < 0 || lo+count+fb.m-1 > n {
		return ErrLengthMismatch
	}
	if nrows < nids {
		return ErrLengthMismatch
	}
	return nil
}

// overlapAdd streams the span through bounded FFT blocks, transforming each
// block once and reusing that spectrum for every selected template
// (overlap-add: each block's circular correlation contributes its valid
// positive lags in place and its negative lags into the preceding rows'
// tail, so block boundaries sum exactly to the linear correlation). Exactly
// one of outR/outC receives the rows, which are fully overwritten.
//
//cbma:hotpath
func (fb *FilterBank) overlapAdd(span []complex128, count int, ids []int, outR [][]float64, outC [][]complex128) {
	m := fb.m
	size, _ := fb.blocking(count)
	step := size - m + 1
	specs := fb.spectraFor(size)
	in, prod := fb.scratch(size)
	p := planFor(size)
	for j := range ids {
		if outR != nil {
			row := outR[j][:count]
			for k := range row {
				row[k] = 0
			}
		} else {
			row := outC[j][:count]
			for k := range row {
				row[k] = 0
			}
		}
	}
	for s := 0; s < len(span); s += step {
		chunkLen := len(span) - s
		if chunkLen > step {
			chunkLen = step
		}
		copy(in[:chunkLen], span[s:s+chunkLen])
		for i := chunkLen; i < size; i++ {
			in[i] = 0
		}
		p.forwardInPlace(in)
		for j, id := range ids {
			spec := specs[id]
			for i := range prod {
				prod[i] = in[i] * spec[i]
			}
			p.inverseInPlace(prod)
			// Circular index k holds linear lag k for k < chunkLen and
			// linear lag k-size for k ≥ size-(m-1).
			lo, hi := -(m - 1), chunkLen-1
			if s+lo < 0 {
				lo = -s
			}
			if g := count - 1 - s; hi > g {
				hi = g
			}
			if outR != nil {
				row := outR[j]
				for k := lo; k <= hi; k++ {
					idx := k
					if idx < 0 {
						idx += size
					}
					row[s+k] += real(prod[idx])
				}
			} else {
				row := outC[j]
				for k := lo; k <= hi; k++ {
					idx := k
					if idx < 0 {
						idx += size
					}
					row[s+k] += prod[idx]
				}
			}
		}
	}
}

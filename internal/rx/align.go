package rx

import (
	"math"

	"cbma/internal/dsp"
)

// This file is the receiver's fast timing-acquisition path: a prefix-sum
// edge refiner and a coarse-to-fine replacement for globalAlign's
// exhaustive lag×code scan. Config.ReferenceSync selects the original
// implementations in detect.go; the two paths make identical decisions on
// every covered scenario (TestSyncEquivalence*, TestRunSyncEquivalence),
// which is what lets campaigns keep bit-identical Metrics while the sync
// phase drops severalfold in cost.

// magnitudeWindowInto fills dst[lo:hi] with |x| — the same math.Hypot
// arithmetic as dsp.MagnitudeInto, so filled samples are bit-identical with
// a full fill — and zeroes the rest, keeping reused scratch deterministic.
//
//cbma:hotpath
func magnitudeWindowInto(dst []float64, x []complex128, lo, hi int) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for i := 0; i < lo; i++ {
		dst[i] = 0
	}
	for i := lo; i < hi; i++ {
		dst[i] = math.Hypot(real(x[i]), imag(x[i]))
	}
	for i := hi; i < len(dst); i++ {
		dst[i] = 0
	}
	return dst
}

// refineEdgePrefix is refineEdge with the per-position 16-sample rescan
// replaced by an O(1) prefix-sum window (prefix, the power prefix sums
// receive builds once per buffer). Scan bounds, thresholds and the
// returned edge match the reference; only the window sum's floating-point
// association differs.
//
//cbma:hotpath
func (r *Receiver) refineEdgePrefix(power, prefix []float64, coarse int, noiseW float64) int {
	const win = 16
	lo := coarse - r.cfg.SamplesPerChip
	if lo < 0 {
		lo = 0
	}
	hi := coarse + r.shortWindow() + 2*r.cfg.SamplesPerChip
	if hi+win > len(power) {
		hi = len(power) - win
	}
	if noiseW <= 0 || hi < lo {
		return coarse
	}
	thresh := 3 * noiseW * win
	p := prefix
	for j := lo; j <= hi; j++ {
		if p[j+win]-p[j] <= thresh {
			continue
		}
		for k := 0; k < win; k++ {
			if power[j+k] > 6*noiseW {
				return j + k
			}
		}
		return j + win/2
	}
	return coarse
}

// alignScoreAt is globalAlign's direct-path score at one lag — the summed
// positive-polarity preamble correlation across every code, weighted by the
// soft edge prior — with arithmetic identical to the reference scan
// (dsp.DotReal per code, then sum * (1/(1+d²))), so a lag evaluated by both
// paths scores bit-identically.
//
//cbma:hotpath
func (r *Receiver) alignScoreAt(env []float64, lag, edge int) float64 {
	tmplLen := len(r.preambleTmpl[0])
	var sum float64
	for id := range r.preambleTmpl {
		c, err := dsp.DotReal(env[lag:lag+tmplLen], r.preambleTmpl[id])
		if err != nil {
			return 0
		}
		if c > 0 {
			sum += c * c
		}
	}
	d := float64(lag-edge) / float64(4*r.cfg.SamplesPerChip)
	return sum * (1 / (1 + d*d))
}

// scanStride evaluates alignScoreAt on the strided lag grid anchored at
// gridLo, over the grid points falling inside [from, to], carrying the
// running best forward. Lags iterate ascending and ties keep the earlier
// lag (strict >), matching the reference scan's argmax semantics.
//
//cbma:hotpath
func (r *Receiver) scanStride(env []float64, gridLo, stride, from, to, edge, bestLag int, bestScore float64) (int, float64) {
	if from < gridLo {
		from = gridLo
	}
	if d := (from - gridLo) % stride; d != 0 {
		from += stride - d
	}
	for lag := from; lag <= to; lag += stride {
		if s := r.alignScoreAt(env, lag, edge); s > bestScore {
			bestLag, bestScore = lag, s
		}
	}
	return bestLag, bestScore
}

// refineSample is the reference path's final sample-resolution pass around
// the strided winner, shared by both alignment implementations.
//
//cbma:hotpath
func (r *Receiver) refineSample(env []float64, lo, hi, stride, edge, bestLag int, bestScore float64) (int, bool) {
	rlo, rhi := bestLag-stride+1, bestLag+stride-1
	if rlo < lo {
		rlo = lo
	}
	if rhi > hi {
		rhi = hi
	}
	for lag := rlo; lag <= rhi; lag++ {
		if s := r.alignScoreAt(env, lag, edge); s > bestScore {
			bestLag, bestScore = lag, s
		}
	}
	return bestLag, bestScore > 0
}

// alignCoarseFine is globalAlign's coarse-to-fine fast path. The insight is
// that the preamble templates are chip-constant — each sample template
// repeats one discriminant value SamplesPerChip times — so at chip-aligned
// lags the full correlation collapses to a chip-rate correlation of the
// envelope's per-chip block sums (integrate-and-dump) against templates
// SamplesPerChip times shorter. The coarse pass scores every chip-aligned
// lag at 1/spc² of the reference cost, and only the basins around the two
// best chip cells (plus the edge prior's cell, the absolute timing anchor)
// are rescored exactly on the reference's strided grid, followed by the
// same sample-resolution refinement. Because the fine stage's arithmetic is
// bit-identical to the reference scan, the result matches the reference
// whenever the reference winner's basin is among the candidates — which
// holds on every covered scenario: the correlation peak decays within one
// chip, so its cell (or a neighbour, also scanned) always dominates the
// chip-rate landscape.
//
// Windows too narrow to prune — or spc == 1, where chip rate is sample
// rate — simply run the reference scan, with identical results.
//
//cbma:hotpath
func (r *Receiver) alignCoarseFine(s *Scratch, env []float64, power []float64, coarse int, noiseW float64, nominalStart int) (int, bool) {
	tmplLen := len(r.preambleTmpl[0])
	spc := r.cfg.SamplesPerChip
	slack := spc * 2
	lo := coarse - slack
	if lo < 0 {
		lo = 0
	}
	hi := coarse + r.shortWindow() + slack
	if hi+tmplLen > len(env) {
		hi = len(env) - tmplLen
	}
	if hi < lo {
		return 0, false
	}
	stride := spc / 2
	if stride < 1 {
		stride = 1
	}
	edge := nominalStart
	if edge < 0 {
		edge = r.refineEdgePrefix(power, s.powerPrefix, coarse, noiseW)
	}
	if spc < 2 || hi-lo <= 4*spc {
		bestLag, bestScore := r.scanStride(env, lo, stride, lo, hi, edge, lo, -1.0)
		return r.refineSample(env, lo, hi, stride, edge, bestLag, bestScore)
	}

	// Coarse pass: decimate the alignment span to chip rate and correlate
	// against the chip-rate templates. Scores at chip-aligned lags equal
	// the exact scores there up to floating-point association.
	span := env[lo : hi+tmplLen]
	chips, err := dsp.DownsampleSumInto(s.envChips, span, spc)
	if err != nil {
		// Unreachable (spc ≥ 2), but degrade to the reference scan rather
		// than mis-align.
		bestLag, bestScore := r.scanStride(env, lo, stride, lo, hi, edge, lo, -1.0)
		return r.refineSample(env, lo, hi, stride, edge, bestLag, bestScore)
	}
	s.envChips = chips
	nChips := len(r.chipTmpl[0])
	cMax := (hi - lo) / spc
	if m := len(chips) - nChips; cMax > m {
		cMax = m
	}
	best1, best2 := -1, -1
	s1, s2 := 0.0, 0.0
	for c := 0; c <= cMax; c++ {
		var sum float64
		seg := chips[c:]
		for id := range r.chipTmpl {
			t := r.chipTmpl[id]
			var acc float64
			for k, v := range t {
				acc += seg[k] * v
			}
			if acc > 0 {
				sum += acc * acc
			}
		}
		if sum <= 0 {
			continue
		}
		d := float64(lo+c*spc-edge) / float64(4*spc)
		sum *= 1 / (1 + d*d)
		if best1 < 0 || sum > s1 {
			best1, best2 = c, best1
			s1, s2 = sum, s1
		} else if best2 < 0 || sum > s2 {
			best2, s2 = c, sum
		}
	}
	if best1 < 0 {
		// No chip cell carries positive-polarity correlation — essentially
		// a noise-only window, where a sample-grid peak could still hide
		// between cells. Fall back to the reference scan.
		bestLag, bestScore := r.scanStride(env, lo, stride, lo, hi, edge, lo, -1.0)
		return r.refineSample(env, lo, hi, stride, edge, bestLag, bestScore)
	}

	// Candidate basins: the two best chip cells plus the edge prior's cell,
	// each widened by one chip either side, rescored exactly on the
	// reference grid in ascending lag order (for reference-identical tie
	// breaks) without double-visiting overlap.
	ec := edge
	if ec < lo {
		ec = lo
	}
	if ec > hi {
		ec = hi
	}
	ec = (ec - lo) / spc
	if ec > cMax {
		ec = cMax
	}
	var cand [3]int
	nc := 0
	cand[nc] = best1
	nc++
	if best2 >= 0 && best2 != best1 {
		cand[nc] = best2
		nc++
	}
	if ec != best1 && ec != best2 {
		cand[nc] = ec
		nc++
	}
	// Insertion-sort the (≤3) cells ascending.
	for i := 1; i < nc; i++ {
		for j := i; j > 0 && cand[j] < cand[j-1]; j-- {
			cand[j], cand[j-1] = cand[j-1], cand[j]
		}
	}
	bestLag, bestScore := lo, -1.0
	covered := lo - 1
	for i := 0; i < nc; i++ {
		center := lo + cand[i]*spc
		from, to := center-spc, center+spc
		if from <= covered {
			from = covered + 1
		}
		if to > hi {
			to = hi
		}
		if from > to {
			continue
		}
		bestLag, bestScore = r.scanStride(env, lo, stride, from, to, edge, bestLag, bestScore)
		covered = to
	}
	return r.refineSample(env, lo, hi, stride, edge, bestLag, bestScore)
}

package rx

import (
	"math"
	"math/cmplx"

	"cbma/internal/dsp"
)

// detection is the outcome of the per-user preamble search.
type detection struct {
	lag    int        // frame start in samples
	corr   float64    // normalized envelope correlation at lag
	phasor complex128 // unit phasor of the user's channel (preamble phase)
}

// complexRealDot computes Σ x[i]·t[i] for complex samples against a real
// template — the correlation primitive of the coherent bit decisions.
func complexRealDot(x []complex128, t []float64) complex128 {
	var re, im float64
	for i, v := range t {
		re += real(x[i]) * v
		im += imag(x[i]) * v
	}
	return complex(re, im)
}

// sweep holds the precomputed per-code correlation rows of one detection
// window, produced by the frequency-domain filter bank when the window is
// large enough for the FFT to pay (see Receiver.buildSweep). rows are
// read-only once built.
type sweep struct {
	lo, count int
	// coh[id][k] is the coherent preamble correlation of code id at lag
	// lo+k; env[id][k] the envelope correlation (filled for sparse codes
	// only — dense codes never consult it).
	coh [][]complex128
	env [][]float64
}

// buildSweep evaluates the shared detection window around globalStart for
// every code through the filter bank, or returns nil when the bank's cost
// model keeps the direct per-lag loops (small windows — the default
// configuration — stay bit-identical with the naive scan). The returned
// sweep lives in s: it is valid until the next buildSweep call and must not
// outlive it.
func (r *Receiver) buildSweep(s *Scratch, env []float64, x []complex128, globalStart int) *sweep {
	lo, hi, ok := r.searchWindow(globalStart, len(x))
	if !ok {
		return nil
	}
	count := hi - lo + 1
	n := r.cfg.Codes.Size()
	if !r.bank.ShouldUseFFT(count, n, true) {
		return nil
	}
	s.cohRows = growComplexRows(s.cohRows, n, count)
	if err := r.bank.CorrelateAll(x, lo, count, nil, s.cohRows); err != nil {
		r.noteFFTFallback("sweep", err)
		return nil
	}
	s.sweep = sweep{lo: lo, count: count, coh: s.cohRows}
	sw := &s.sweep
	if r.anySparse {
		var sparseIDs []int
		for id, sp := range r.sparse {
			if sp {
				sparseIDs = append(sparseIDs, id)
			}
		}
		s.envRows = growFloatRows(s.envRows, n, count)
		rows := make([][]float64, len(sparseIDs))
		sw.env = make([][]float64, n)
		for j, id := range sparseIDs {
			rows[j] = s.envRows[id]
			sw.env[id] = s.envRows[id]
		}
		if err := r.bank.CorrelateRealAll(env, lo, count, sparseIDs, rows); err != nil {
			r.noteFFTFallback("sweep_env", err)
			return nil
		}
	}
	return sw
}

// searchWindow is the per-user timing window around the global alignment,
// shared by every code (equal template lengths make lo/hi code-independent).
func (r *Receiver) searchWindow(globalStart, n int) (lo, hi int, ok bool) {
	tmplLen := len(r.preambleTmpl[0])
	slack := r.cfg.SearchChips * r.cfg.SamplesPerChip
	lo = globalStart - slack
	if lo < 0 {
		lo = 0
	}
	hi = globalStart + slack
	if hi+tmplLen > n {
		hi = n - tmplLen
	}
	if hi < lo {
		return 0, 0, false
	}
	return lo, hi, true
}

func growFloatRows(rows [][]float64, n, count int) [][]float64 {
	if len(rows) < n {
		rows = append(rows, make([][]float64, n-len(rows))...)
	}
	for i := 0; i < n; i++ {
		if cap(rows[i]) < count {
			rows[i] = make([]float64, count)
		}
		rows[i] = rows[i][:count]
	}
	return rows
}

func growComplexRows(rows [][]complex128, n, count int) [][]complex128 {
	if len(rows) < n {
		rows = append(rows, make([][]complex128, n-len(rows))...)
	}
	for i := 0; i < n; i++ {
		if cap(rows[i]) < count {
			rows[i] = make([]complex128, count)
		}
		rows[i] = rows[i][:count]
	}
	return rows
}

// globalAlign estimates the fine frame start common to the colliding tags by
// maximizing the summed positive-polarity preamble correlation across every
// code in the deployment over the energy detector's uncertainty window.
//
// Alignment and user detection run on the magnitude envelope — exactly the
// P(t) = √(I²+Q²) statistic the paper's receiver computes — rather than on
// the complex baseband, for two reasons. First, the envelope has no phase
// ambiguity, so the alternating 1010… preamble keeps its polarity: a
// one-bit-shifted (inverted) alignment correlates negatively and is
// rejected, where a coherent magnitude metric could not tell it apart from a
// π-rotated channel. Second, a single shared alignment is essential for
// shift-structured code families: 2NC codes are cyclic shifts of one
// another, so tag j's entire waveform equals tag i's shifted by 2(j−i)
// chips, and a per-user search wide enough to absorb the energy detector's
// back-dating would lock code i onto tag j's frame. Because CBMA tags are
// frame-synchronized by the shared excitation source to within a fraction
// of a chip (the damage beyond that is what Fig. 11 measures), every active
// user peaks at nearly the same lag — and the summed metric peaks where all
// of them agree, while any shift-impostor alignment only ever matches a
// subset.
//
// The search runs at half-chip stride and then refines to sample resolution
// around the winner. When the window × code-count product is large enough,
// the per-code correlations come from the frequency-domain filter bank —
// one shared FFT of the envelope window against every code's precomputed
// preamble spectrum — instead of per-lag dot products; the scan pattern is
// unchanged, so the two paths agree to floating-point rounding and the
// direct path stays bit-identical with the original receiver.
//
// The correlation score is weighted by a soft prior centered on the
// refined energy-rise edge (refineEdge). The edge is the one *absolute*
// timing anchor the physics provides: for a shift-structured family with a
// single active tag the correlation landscape is perfectly periodic (one
// code matches at every slot shift), and without the edge prior the
// alignment — and therefore the tag's identity — would be picked uniformly
// at random among the shifts. The prior is gentle enough (half weight at
// four chips) that a genuine multi-tag correlation peak still dominates
// when the edge estimate is noisy.
func (r *Receiver) globalAlign(s *Scratch, env []float64, power []float64, coarse int, noiseW float64, nominalStart int) (int, bool) {
	tmplLen := len(r.preambleTmpl[0])
	slack := r.cfg.SamplesPerChip * 2
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
	stride := r.cfg.SamplesPerChip / 2
	if stride < 1 {
		stride = 1
	}
	edge := nominalStart
	if edge < 0 {
		edge = r.refineEdge(power, coarse, noiseW)
	}
	prior := func(lag int) float64 {
		d := float64(lag-edge) / float64(4*r.cfg.SamplesPerChip)
		return 1 / (1 + d*d)
	}
	count := hi - lo + 1
	// corrAt(id, lag) is the envelope-preamble correlation; the fast path
	// precomputes every (code, lag) cell through the bank's shared FFT.
	corrAt := func(id, lag int) float64 {
		c, err := dsp.DotReal(env[lag:lag+tmplLen], r.preambleTmpl[id])
		if err != nil {
			return math.Inf(-1)
		}
		return c
	}
	if r.bank.ShouldUseFFT(count, len(r.preambleTmpl), false) {
		s.alignRows = growFloatRows(s.alignRows, len(r.preambleTmpl), count)
		if err := r.bank.CorrelateRealAll(env, lo, count, nil, s.alignRows); err == nil {
			rows := s.alignRows
			corrAt = func(id, lag int) float64 { return rows[id][lag-lo] }
		} else {
			r.noteFFTFallback("align", err)
		}
	}
	score := func(lag int) float64 {
		var sum float64
		for id := range r.preambleTmpl {
			c := corrAt(id, lag)
			if math.IsInf(c, -1) {
				return 0
			}
			if c > 0 { // only positive polarity is a valid preamble
				sum += c * c
			}
		}
		return sum * prior(lag)
	}
	bestLag, bestScore := lo, -1.0
	for lag := lo; lag <= hi; lag += stride {
		if s := score(lag); s > bestScore {
			bestLag, bestScore = lag, s
		}
	}
	// Refine to sample resolution around the strided winner.
	rlo, rhi := bestLag-stride+1, bestLag+stride-1
	if rlo < lo {
		rlo = lo
	}
	if rhi > hi {
		rhi = hi
	}
	for lag := rlo; lag <= rhi; lag++ {
		if s := score(lag); s > bestScore {
			bestLag, bestScore = lag, s
		}
	}
	return bestLag, bestScore > 0
}

// refineEdge locates the frame's energy-rise edge to within a chip or two:
// the first sample at or after the (back-dated) coarse start whose local
// 8-sample mean power clears the noise estimate by 3 dB. It falls back to
// the coarse start when nothing clears the bar (very low SNR).
func (r *Receiver) refineEdge(power []float64, coarse int, noiseW float64) int {
	// A 16-sample window at 3× the noise floor keeps the false-fire
	// probability per position below 1e-6 (Chernoff), so the edge cannot
	// anchor on a noise fluctuation ahead of the frame.
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
	for j := lo; j <= hi; j++ {
		var acc float64
		for k := 0; k < win; k++ {
			acc += power[j+k]
		}
		if acc <= thresh {
			continue
		}
		// The window triggers as soon as it overlaps the frame, up to
		// win−1 samples early; locate the first individual sample that
		// clears the floor decisively to pin the edge within ~a sample.
		for k := 0; k < win; k++ {
			if power[j+k] > 6*noiseW {
				return j + k
			}
		}
		return j + win/2
	}
	return coarse
}

// detectUser implements §III-B user detection for one code: it slides the
// code's preamble discriminant template over the complex baseband within
// ±SearchChips chips of the global alignment and reports the best normalized
// correlation magnitude. When sw is non-nil the per-lag correlations come
// from the precomputed frequency-domain sweep; the detection statistics at
// the chosen lag always come from the direct dot product (the lag loop's
// own, or recomputed after the sweep), so the reported corr/phasor/CFAR
// values are path-independent.
//
// The per-user metric is coherent — |Σ x·tmpl| normalized by the window and
// template energies — because the envelope correlation dilutes as 1/√N with
// N concurrent tags and stops separating present from absent users beyond
// two or three tags, while the coherent matched filter keeps its margin.
// The coherent magnitude cannot tell an inverted (one-bit-shifted) preamble
// from a π-rotated channel, but the narrow window around the
// envelope-anchored global alignment never reaches a one-bit shift, so the
// ambiguity is structurally excluded. The window also stays inside the
// cyclic-ambiguity distance of shift-structured families like 2NC (see
// globalAlign) while tolerating the sub-chip clock skew the
// correlation-based detector is built for.
//
// Lag choice and detection value use different statistics because their
// failure modes differ, and the right lag statistic depends on the code's
// structure — this is matched detection, not a tuning hack:
//
//   - Sparse PPM-style codes (2NC: one active chip per bit value) choose
//     the lag by maximum positive envelope correlation. Envelope
//     contributions add without phase cancellation, so the true alignment
//     beats the ±1 chip offsets where the window mixes the tag's own
//     inverted chips with a neighbour's chips — offsets that can win a
//     phase-blind magnitude contest under fading.
//   - Dense balanced codes (Gold, Kasami, Walsh: ~half the chips active)
//     choose the lag by maximum coherent correlation magnitude. Their
//     envelope statistic breaks under near-far — a weak tag's envelope
//     contribution scales with the cosine of its phase offset from the
//     dominant tag and can legitimately go negative — while their
//     autocorrelation rejects ±1 chip offsets on its own.
//
// The detection test at the chosen lag always uses the coherent normalized
// correlation |Σ x·tmpl| / (‖x_win‖·‖tmpl‖), because the envelope value
// dilutes against N concurrent tags and stops separating present from
// absent users, while the coherent matched filter keeps its margin.
//
// On success the detection carries the user's channel phasor — the phase of
// the complex correlation at the chosen lag — as the reference the coherent
// bit decisions project onto. For a sparse code, the residual self-impostor
// (an exactly inverted decode at ±1 chip) is detected and undone by
// decodeUser's preamble-inversion repair.
func (r *Receiver) detectUser(sw *sweep, env []float64, x []complex128, id, globalStart int, noiseW float64) (detection, bool) {
	tmpl := r.preambleTmpl[id]
	lo, hi, ok := r.searchWindow(globalStart, len(x))
	if !ok {
		return detection{}, false
	}
	var tmplEnergy float64
	for _, v := range tmpl {
		tmplEnergy += v * v
	}
	if tmplEnergy == 0 {
		return detection{}, false
	}
	// The direct loops keep the coherent dot at the lag they choose; the
	// sweep's FFT value is only rounding-close, so that path recomputes it.
	bestLag := -1
	var dot complex128
	if sw != nil {
		bestLag = r.pickLagFromSweep(sw, id)
		if bestLag >= 0 {
			dot = complexRealDot(x[bestLag:bestLag+len(tmpl)], tmpl)
		}
	} else if r.sparse[id] {
		bestEnv := 0.0
		cohLag, cohBest := -1, -1.0
		var cohDot complex128
		for lag := lo; lag <= hi; lag++ {
			e, err := dsp.DotReal(env[lag:lag+len(tmpl)], tmpl)
			if err != nil {
				return detection{}, false
			}
			d := complexRealDot(x[lag:lag+len(tmpl)], tmpl)
			if e > bestEnv {
				bestLag, bestEnv, dot = lag, e, d
			}
			if m := real(d)*real(d) + imag(d)*imag(d); m > cohBest {
				cohLag, cohBest, cohDot = lag, m, d
			}
		}
		if bestLag < 0 {
			// No positive envelope peak: fall back to coherent.
			bestLag, dot = cohLag, cohDot
		}
	} else {
		cohBest := -1.0
		for lag := lo; lag <= hi; lag++ {
			d := complexRealDot(x[lag:lag+len(tmpl)], tmpl)
			if m := real(d)*real(d) + imag(d)*imag(d); m > cohBest {
				bestLag, cohBest, dot = lag, m, d
			}
		}
	}
	if bestLag < 0 {
		return detection{}, false
	}
	winE := dsp.Energy(x[bestLag : bestLag+len(tmpl)])
	if winE == 0 {
		return detection{}, false
	}
	mag2 := real(dot)*real(dot) + imag(dot)*imag(dot)
	corr := math.Sqrt(mag2 / (winE * tmplEnergy))
	if corr < r.cfg.DetectThreshold {
		return detection{}, false
	}
	// CFAR test: the matched-filter output must clear the noise floor by
	// the configured deflection. This is the length-sensitive half of
	// detection — integrating a longer preamble buys SNR — while the
	// normalized-correlation test above is the MAI-robust, scale-free
	// half (see Config.CFARThreshold).
	if noiseW > 0 && mag2 < r.cfg.CFARThreshold*noiseW*tmplEnergy {
		return detection{}, false
	}
	best := detection{lag: bestLag, corr: corr, phasor: 1}
	if abs := cmplx.Abs(dot); abs > 0 {
		best.phasor = dot / complex(abs, 0)
	}
	return best, true
}

// pickLagFromSweep reproduces detectUser's lag choice from precomputed
// rows: maximum positive envelope correlation for sparse codes (falling
// back to the coherent peak), maximum coherent magnitude for dense ones.
func (r *Receiver) pickLagFromSweep(sw *sweep, id int) int {
	coh := sw.coh[id]
	bestLag := -1
	if r.sparse[id] && sw.env != nil && sw.env[id] != nil {
		bestEnv := 0.0
		cohLag, cohBest := -1, -1.0
		envRow := sw.env[id]
		for k := 0; k < sw.count; k++ {
			if e := envRow[k]; e > bestEnv {
				bestLag, bestEnv = sw.lo+k, e
			}
			dot := coh[k]
			if m := real(dot)*real(dot) + imag(dot)*imag(dot); m > cohBest {
				cohLag, cohBest = sw.lo+k, m
			}
		}
		if bestLag < 0 {
			bestLag = cohLag
		}
		return bestLag
	}
	cohBest := -1.0
	for k := 0; k < sw.count; k++ {
		dot := coh[k]
		if m := real(dot)*real(dot) + imag(dot)*imag(dot); m > cohBest {
			bestLag, cohBest = sw.lo+k, m
		}
	}
	return bestLag
}

// detectAndDecodeAll runs per-code detection and decoding over the buffer,
// returning the decoded frames in code order.
func (r *Receiver) detectAndDecodeAll(s *Scratch, env []float64, x []complex128, globalStart int, noiseW float64) []DecodedFrame {
	n := r.cfg.Codes.Size()
	sw := r.buildSweep(s, env, x, globalStart)
	frames := make([]DecodedFrame, 0, n)
	for id := 0; id < n; id++ {
		detSp := r.obs.Start(r.hDetect)
		det, ok := r.detectUser(sw, env, x, id, globalStart, noiseW)
		detSp.End()
		if !ok {
			continue
		}
		decSp := r.obs.Start(r.hDecode)
		f := r.decodeUser(x, id, det.lag, det.phasor)
		decSp.End()
		f.Corr = det.corr
		frames = append(frames, f)
	}
	return frames
}

// detectBest scans the given codes and returns the one with the strongest
// detection — the SIC ordering primitive. Ties break toward the lowest code
// ID.
func (r *Receiver) detectBest(s *Scratch, ids []int, env []float64, x []complex128, globalStart int, noiseW float64) (int, detection, bool) {
	sw := r.buildSweep(s, env, x, globalStart)
	bestID := -1
	var bestDet detection
	for _, id := range ids {
		det, ok := r.detectUser(sw, env, x, id, globalStart, noiseW)
		if !ok {
			continue
		}
		if bestID < 0 || det.corr > bestDet.corr {
			bestID, bestDet = id, det
		}
	}
	return bestID, bestDet, bestID >= 0
}

// noteFFTFallback records a filter-bank error that silently dropped an
// alignment or detection sweep to the direct per-lag loops. The results are
// unaffected — the direct path computes the same correlations — but the
// cost regresses to the O(lags×codes) product the bank exists to avoid, so
// the fallback must be visible in the run manifest (counter) and event log
// rather than only as unexplained wall time.
func (r *Receiver) noteFFTFallback(where string, err error) {
	r.cFFTFallback.Inc()
	if r.obs.EmitsEvents() {
		r.obs.Emit("rx_fft_fallback", map[string]any{"where": where, "error": err.Error()})
	}
}

package rx

import (
	"bytes"
	"errors"
	"math"
	"slices"

	"cbma/internal/frame"
)

// ErrGhost marks a CRC-valid decode suppressed as a correlation ghost: its
// payload is byte-identical to a stronger user's frame. In high SNR a
// correlation receiver decodes a *copy* of a strong transmission on any
// code with non-zero cross-correlation — the bit decisions track the
// interferer's bits exactly, so even the CRC validates. Ghost frames are
// returned with OK=false and this error so callers can observe them.
var ErrGhost = errors.New("rx: duplicate-payload correlation ghost suppressed")

// receiveSIC is the successive-interference-cancellation receive path
// (Config.SIC): users are detected and decoded strongest-first; after every
// verified frame the amplitudes of all accepted users are re-estimated by a
// joint least-squares fit and subtracted from the original buffer, so each
// detection pass sees only the not-yet-decoded users plus noise. A final
// pass suppresses payload ghosts (see ErrGhost).
//
// The paper's threshold detector reports 99.9% user-detection accuracy on
// its testbed; in this simulator's richer fading the deterministic
// preamble-on-preamble leakage between Gold codes makes a single threshold
// insufficient, so the user-detection experiment enables this stage — the
// standard software-radio technique for separating colliding RFID
// transmissions (the paper's own references [29], [30]). The FER and
// power-control experiments leave it off to preserve the paper's plain
// §III-B receiver, whose near-far weakness is exactly what Algorithm 1
// addresses; the detector ablation bench quantifies the difference.
func (r *Receiver) receiveSIC(s *Scratch, samples []complex128, res *Result, env []float64, globalStart int) {
	noiseW := res.NoiseW
	res.Frames = make([]DecodedFrame, 0, r.cfg.Codes.Size())
	st := &s.sic
	st.reset(len(samples))
	if cap(st.work) < len(samples) {
		st.work = make([]complex128, len(samples))
	}
	work := st.work[:len(samples)]
	copy(work, samples)
	// Only sparse codes read the envelope (detectUser, buildSweep), so a
	// dense code set neither copies nor rebuilds it.
	var envWork []float64
	if r.anySparse {
		if cap(st.env) < len(env) {
			st.env = make([]float64, len(env))
		}
		envWork = st.env[:len(env)]
		copy(envWork, env)
	}

	// remaining holds the not-yet-decoded code IDs in ascending order, so
	// detection ties break deterministically toward the lowest ID.
	remaining := st.remaining[:0]
	for id := range r.cfg.Codes.Codes {
		remaining = append(remaining, id)
	}
	for len(remaining) > 0 {
		// Each pass times its detection sweep as rx.phase.detect and its
		// decode-and-cancel step as rx.phase.decode, like the plain path.
		detSp := r.obs.Start(r.hDetect)
		bestID, bestDet, found := r.detectBest(s, remaining, envWork, work, globalStart, noiseW)
		detSp.End()
		if !found {
			break
		}
		for j, id := range remaining {
			if id == bestID {
				remaining = append(remaining[:j], remaining[j+1:]...)
				break
			}
		}
		decSp := r.obs.Start(r.hDecode)
		r.decodeAndCancel(st, samples, work, envWork, res, bestID, bestDet)
		decSp.End()
	}
	st.remaining = remaining
	suppressGhosts(res.Frames)
}

// decodeAndCancel is one SIC pass after detection: it decodes the chosen
// user from the working residual and, when the frame verifies, adds it to
// the accepted set, re-fits every accepted amplitude and rebuilds the
// residual (work) and, when non-nil, its envelope (envWork) from the
// original samples.
func (r *Receiver) decodeAndCancel(st *sicState, samples, work []complex128, envWork []float64, res *Result, id int, det detection) {
	f := r.decodeUser(work, id, det.lag, det.phasor)
	f.Corr = det.corr
	res.Frames = append(res.Frames, f)
	if !f.OK {
		return // cannot reconstruct an unverified frame
	}
	var buf [frame.MaxBits]byte
	bits, err := frame.AppendBits(buf[:0], f.Payload, r.cfg.Frame)
	if err != nil {
		return // cannot happen for a CRC-verified payload; fail open
	}
	st.chips = r.cfg.Codes.Codes[id].AppendSpread(st.chips[:0], bits)
	st.accept(samples, f.Lag, st.chips, r.cfg.SamplesPerChip)
	// Joint LS re-fit of every accepted amplitude against the original
	// buffer, then rebuild the working residual. Per-user scalar fits
	// leave 10–30% residuals when supports overlap; the joint solve
	// drives the residual to the noise floor.
	amps, ok := st.solve()
	if !ok {
		return
	}
	st.cancel(work, samples, amps)
	for i := range envWork {
		re, im := real(work[i]), imag(work[i])
		envWork[i] = math.Sqrt(re*re + im*im)
	}
}

// sicRun is one maximal run of a user's active samples, [lo, hi), clipped
// to the buffer.
type sicRun struct{ lo, hi int }

// sicState is the SIC loop's working storage, kept in Scratch: the
// residual and its envelope, the code IDs not yet decoded, and the joint
// least-squares system G·â = b of the accepted users. G and b grow by one
// row and column per acceptance instead of being rebuilt per pass:
//
//   - G[i][j] = Σ_t w_i(t)·w_j(t) counts the overlapping active samples of
//     the unit 0/1 waveforms of users i and j. Integer counts are exact in
//     float64, so the order they are formed in cannot change them.
//   - b[i] = Σ_t x(t)·w_i(t) sums the original samples in ascending t,
//     which depends on user i alone.
//
// A pass therefore solves the same system a from-scratch build would, bit
// for bit, at O(k·runs + N) to extend it instead of O(k²·N) to build it.
type sicState struct {
	work      []complex128
	env       []float64
	chips     []byte
	remaining []int
	// runs[u] is accepted user u's on-runs; lo and hi bound their union.
	runs   [][]sicRun
	lo, hi int
	g      [][]float64
	b      []complex128
	// m, rhs and amps are solveComplex's working copies and output.
	m    [][]float64
	rhs  []complex128
	amps []complex128
}

// reset empties the accepted set for a buffer of n samples.
func (st *sicState) reset(n int) {
	st.runs = st.runs[:0]
	st.b = st.b[:0]
	st.lo, st.hi = n, 0
}

// accept adds one verified user — its 0/1 chip stream starting at sample
// lag — to the accepted set: it stores the user's on-runs and extends G and
// b by the new row and column.
func (st *sicState) accept(x []complex128, lag int, chips []byte, spc int) {
	k := len(st.runs)
	st.runs = slices.Grow(st.runs, 1)[:k+1] // slot k keeps its old storage
	runs := appendRuns(st.runs[k][:0], lag, chips, spc, len(x))
	st.runs[k] = runs
	var bk complex128
	var active int
	for _, run := range runs {
		for t := run.lo; t < run.hi; t++ {
			bk += x[t]
		}
		active += run.hi - run.lo
	}
	st.b = append(st.b, bk)
	if len(runs) > 0 {
		st.lo = min(st.lo, runs[0].lo)
		st.hi = max(st.hi, runs[len(runs)-1].hi)
	}
	if k == len(st.g) {
		st.g = append(st.g, nil)
	}
	row := st.g[k][:0]
	for i := 0; i < k; i++ {
		o := float64(overlap(st.runs[i], runs))
		st.g[i] = append(st.g[i][:k], o)
		row = append(row, o)
	}
	st.g[k] = append(row, float64(active))
}

// solve fits every accepted amplitude: it solves G·â = b on working copies
// (G and b keep growing) and returns â, which lives in st until the next
// call.
func (st *sicState) solve() ([]complex128, bool) {
	k := len(st.b)
	for len(st.m) < k {
		st.m = append(st.m, nil)
	}
	for i := 0; i < k; i++ {
		st.m[i] = append(st.m[i][:0], st.g[i][:k]...)
	}
	st.rhs = append(st.rhs[:0], st.b...)
	if cap(st.amps) < k {
		st.amps = make([]complex128, k)
	}
	st.amps = st.amps[:k]
	if !solveComplex(st.m[:k], st.rhs, st.amps) {
		return nil, false
	}
	return st.amps, true
}

// cancel rebuilds the residual: work = samples − Σ_u amps[u]·w_u, each
// sample's users subtracted in ascending order. Only the accepted users'
// span is rewritten; outside it work already equals samples, because the
// span only grows and nothing was ever subtracted there.
func (st *sicState) cancel(work, samples, amps []complex128) {
	if st.lo >= st.hi {
		return
	}
	copy(work[st.lo:st.hi], samples[st.lo:st.hi])
	for u, runs := range st.runs {
		for _, run := range runs {
			for t := run.lo; t < run.hi; t++ {
				work[t] -= amps[u]
			}
		}
	}
}

// appendRuns appends the maximal runs of active chips of a chip stream
// starting at sample lag, as sample intervals clipped to [0, n).
func appendRuns(runs []sicRun, lag int, chips []byte, spc, n int) []sicRun {
	for c := 0; c < len(chips); {
		if chips[c] == 0 {
			c++
			continue
		}
		first := c
		for c < len(chips) && chips[c] != 0 {
			c++
		}
		lo, hi := max(lag+first*spc, 0), min(lag+c*spc, n)
		if lo < hi {
			runs = append(runs, sicRun{lo, hi})
		}
	}
	return runs
}

// overlap counts the samples two ascending, disjoint run lists share.
func overlap(a, b []sicRun) int {
	var n, i, j int
	for i < len(a) && j < len(b) {
		if lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi); lo < hi {
			n += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return n
}

// solveComplex solves the real-symmetric system m·a = rhs with complex rhs
// by Gaussian elimination with partial pivoting, writing a to out. It
// overwrites m (whose rows it permutes) and rhs, and reports false for a
// (near-)singular system.
func solveComplex(m [][]float64, rhs, out []complex128) bool {
	k := len(m)
	for col := 0; col < k; col++ {
		// Pivot.
		pivot := col
		for row := col + 1; row < k; row++ {
			if math.Abs(m[row][col]) > math.Abs(m[pivot][col]) {
				pivot = row
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return false
		}
		m[col], m[pivot] = m[pivot], m[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		inv := 1 / m[col][col]
		for row := col + 1; row < k; row++ {
			f := m[row][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < k; c++ {
				m[row][c] -= f * m[col][c]
			}
			rhs[row] -= complex(f, 0) * rhs[col]
		}
	}
	for row := k - 1; row >= 0; row-- {
		acc := rhs[row]
		for c := row + 1; c < k; c++ {
			acc -= complex(m[row][c], 0) * out[c]
		}
		out[row] = acc / complex(m[row][row], 0)
	}
	return true
}

// suppressGhosts marks CRC-valid frames whose payload duplicates a
// stronger frame's payload (see ErrGhost). Random payloads collide with
// negligible probability, so an exact duplicate is a correlation ghost.
// Among the frames already visited at most one per payload is still OK —
// the strongest so far — so a scan back finds it without a map.
func suppressGhosts(frames []DecodedFrame) {
	for i := range frames {
		f := &frames[i]
		if !f.OK {
			continue
		}
		for j := range frames[:i] {
			best := &frames[j]
			if !best.OK || !bytes.Equal(best.Payload, f.Payload) {
				continue
			}
			if f.Corr > best.Corr {
				best.OK, best.Err = false, ErrGhost
			} else {
				f.OK, f.Err = false, ErrGhost
			}
			break
		}
	}
}

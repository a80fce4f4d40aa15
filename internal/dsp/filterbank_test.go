package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// equivTol is the acceptance tolerance between the direct and FFT
// correlation paths, relative to the largest output magnitude.
const equivTol = 1e-9

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		// Random amplitude and phase so the FFT path is exercised off the
		// real axis.
		a := rng.Float64() * 2
		phi := rng.Float64() * 2 * math.Pi
		out[i] = complex(a*math.Cos(phi), a*math.Sin(phi))
	}
	return out
}

func randReal(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()*4 - 2
	}
	return out
}

// TestFilterBankMatchesDirectLoops checks every bank query shape — complex
// and real input, template subsets, windowed spans, both sides of the
// cutover — against the naive sliding loops.
func TestFilterBankMatchesDirectLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m := 32 + rng.Intn(400)
		nt := 1 + rng.Intn(6)
		tmpls := make([][]float64, nt)
		for i := range tmpls {
			tmpls[i] = randReal(rng, m)
		}
		fb, err := NewFilterBank(tmpls)
		if err != nil {
			t.Fatal(err)
		}
		count := 1 + rng.Intn(900)
		lo := rng.Intn(50)
		n := lo + count + m - 1 + rng.Intn(20)
		x := randComplex(rng, n)
		env := randReal(rng, n)

		ids := []int{}
		for id := 0; id < nt; id++ {
			if rng.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			ids = nil
		}
		sel := ids
		if sel == nil {
			sel = fb.all
		}

		crows := make([][]complex128, len(sel))
		rrows := make([][]float64, len(sel))
		for j := range sel {
			crows[j] = make([]complex128, count)
			rrows[j] = make([]float64, count)
		}
		if err := fb.CorrelateAll(x, lo, count, ids, crows); err != nil {
			t.Fatal(err)
		}
		if err := fb.CorrelateRealAll(env, lo, count, ids, rrows); err != nil {
			t.Fatal(err)
		}
		for j, id := range sel {
			for k := 0; k < count; k++ {
				var re, im, rr float64
				for i, v := range tmpls[id] {
					re += real(x[lo+k+i]) * v
					im += imag(x[lo+k+i]) * v
					rr += env[lo+k+i] * v
				}
				scale := cmplx.Abs(complex(re, im)) + 1
				if d := cmplx.Abs(crows[j][k] - complex(re, im)); d > equivTol*scale {
					t.Fatalf("trial %d: complex row %d lag %d differs by %g", trial, id, k, d)
				}
				rscale := math.Abs(rr) + 1
				if d := math.Abs(rrows[j][k] - rr); d > equivTol*rscale {
					t.Fatalf("trial %d: real row %d lag %d differs by %g", trial, id, k, d)
				}
			}
		}
	}
}

// TestFilterBankValidation exercises the constructor and query guards.
func TestFilterBankValidation(t *testing.T) {
	if _, err := NewFilterBank(nil); err == nil {
		t.Error("empty bank must fail")
	}
	if _, err := NewFilterBank([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("unequal template lengths must fail")
	}
	fb, err := NewFilterBank([][]float64{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{make([]float64, 4)}
	if err := fb.CorrelateRealAll(make([]float64, 10), 0, 0, nil, rows); err == nil {
		t.Error("zero-count query must fail")
	}
	if err := fb.CorrelateRealAll(make([]float64, 10), 8, 4, nil, rows); err == nil {
		t.Error("out-of-range span must fail")
	}
	if err := fb.CorrelateRealAll(make([]float64, 10), 0, 4, nil, nil); err == nil {
		t.Error("missing rows must fail")
	}
	if len(fb.tmpls) != 1 || fb.m != 4 {
		t.Errorf("bank shape: %d templates × %d", len(fb.tmpls), fb.m)
	}
}

// TestShouldUseFFTMonotone sanity-checks the cutover: tiny queries stay on
// the direct loop, large matched-filter sweeps move to the FFT.
func TestShouldUseFFTMonotone(t *testing.T) {
	long := make([][]float64, 8)
	for i := range long {
		long[i] = make([]float64, 4096)
	}
	fb, err := NewFilterBank(long)
	if err != nil {
		t.Fatal(err)
	}
	if fb.ShouldUseFFT(4, 1, false) {
		t.Error("4-lag single-template query must stay direct")
	}
	if !fb.ShouldUseFFT(2048, 8, true) {
		t.Error("2048-lag 8-template complex query must use the FFT")
	}
	short := [][]float64{make([]float64, 8)}
	fbs, err := NewFilterBank(short)
	if err != nil {
		t.Fatal(err)
	}
	if fbs.ShouldUseFFT(1<<20, 1, true) {
		t.Error("8-tap template must never take the FFT path")
	}
}

// TestFilterBankCloneSharesSpectra pins the clone contract: clones share the
// lazily built frequency-domain template cache (the same backing slices, so
// forward transforms are paid once per family) while owning private query
// scratch, and concurrent queries from many clones agree with the original.
func TestFilterBankCloneSharesSpectra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tmpls := make([][]float64, 6)
	for i := range tmpls {
		tmpls[i] = randReal(rng, 256)
	}
	fb, err := NewFilterBank(tmpls)
	if err != nil {
		t.Fatal(err)
	}
	count := 2048
	n := count + fb.m - 1
	env := randReal(rng, n)
	if !fb.ShouldUseFFT(count, len(tmpls), false) {
		t.Fatal("test query must take the FFT path")
	}
	rows := func() [][]float64 {
		r := make([][]float64, len(tmpls))
		for j := range r {
			r[j] = make([]float64, count)
		}
		return r
	}
	want := rows()
	if err := fb.CorrelateRealAll(env, 0, count, nil, want); err != nil {
		t.Fatal(err)
	}
	size, _ := fb.blocking(count)
	spec := fb.spectraFor(size)

	var wg sync.WaitGroup
	got := make([][][]float64, 8)
	clones := make([]*FilterBank, 8)
	for w := range clones {
		clones[w] = fb.Clone()
		got[w] = rows()
	}
	for w := range clones {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := clones[w].CorrelateRealAll(env, 0, count, nil, got[w]); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w := range clones {
		cs := clones[w].spectraFor(size)
		if &cs[0][0] != &spec[0][0] {
			t.Errorf("clone %d rebuilt spectra instead of sharing the cache", w)
		}
		for j := range want {
			for k := range want[j] {
				if got[w][j][k] != want[j][k] {
					t.Fatalf("clone %d row %d lag %d: %v != %v", w, j, k, got[w][j][k], want[j][k])
				}
			}
		}
	}
}

// directReal is the naive sliding correlation out[k] = Σ_i x[k+i]·tmpl[i]
// over every full-overlap lag, the reference the bank must reproduce.
func directReal(x, tmpl []float64) []float64 {
	out := make([]float64, len(x)-len(tmpl)+1)
	for k := range out {
		for i, v := range tmpl {
			out[k] += x[k+i] * v
		}
	}
	return out
}

// directComplex is directReal for complex samples against a real template.
func directComplex(x []complex128, tmpl []float64) []complex128 {
	out := make([]complex128, len(x)-len(tmpl)+1)
	for k := range out {
		var re, im float64
		for i, v := range tmpl {
			re += real(x[k+i]) * v
			im += imag(x[k+i]) * v
		}
		out[k] = complex(re, im)
	}
	return out
}

// maxMagC returns the largest |x[k]|.
func maxMagC(x []complex128) float64 {
	var m float64
	for _, v := range x {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// realToComplex embeds a real vector on the real axis.
func realToComplex(x []float64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	return out
}

// argMaxAbs returns the first index of the largest |row[k]|.
func argMaxAbs(row []complex128) int {
	best := 0
	for k, v := range row {
		if cmplx.Abs(v) > cmplx.Abs(row[best]) {
			best = k
		}
	}
	return best
}

// TestCrossCorrelateKnown pins a hand-computed single-template correlation
// for both input kinds: a one-template bank is the package's plain
// cross-correlator.
func TestCrossCorrelateKnown(t *testing.T) {
	fb, err := NewFilterBank([][]float64{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	x := []complex128{0, 0, 1, 1i, 0}
	wantC := []complex128{0, 1, 1 + 1i, 1i}
	crows := [][]complex128{make([]complex128, len(wantC))}
	if err := fb.CorrelateAll(x, 0, len(wantC), nil, crows); err != nil {
		t.Fatal(err)
	}
	for k := range wantC {
		if crows[0][k] != wantC[k] {
			t.Errorf("complex lag %d: %v, want %v", k, crows[0][k], wantC[k])
		}
	}
	env := []float64{0, 0, 1, 1, 0}
	wantR := []float64{0, 1, 2, 1}
	rrows := [][]float64{make([]float64, len(wantR))}
	if err := fb.CorrelateRealAll(env, 0, len(wantR), nil, rrows); err != nil {
		t.Fatal(err)
	}
	for k := range wantR {
		if rrows[0][k] != wantR[k] {
			t.Errorf("real lag %d: %v, want %v", k, rrows[0][k], wantR[k])
		}
	}
}

// TestCrossCorrelateTemplateTooLong checks that an input shorter than the
// template (no full-overlap lag) is refused on both query kinds, and that an
// empty template cannot form a bank.
func TestCrossCorrelateTemplateTooLong(t *testing.T) {
	fb, err := NewFilterBank([][]float64{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.CorrelateAll(make([]complex128, 2), 0, 1, nil, [][]complex128{make([]complex128, 1)}); err != ErrLengthMismatch {
		t.Errorf("complex: got err %v, want ErrLengthMismatch", err)
	}
	if err := fb.CorrelateRealAll(make([]float64, 2), 0, 1, nil, [][]float64{make([]float64, 1)}); err != ErrLengthMismatch {
		t.Errorf("real: got err %v, want ErrLengthMismatch", err)
	}
	if _, err := NewFilterBank([][]float64{nil}); err != ErrEmptyInput {
		t.Errorf("empty template: got err %v, want ErrEmptyInput", err)
	}
}

// TestCrossCorrelateRealMatchesComplex checks that the real-input query
// equals the complex query on the same samples embedded on the real axis,
// on the direct path (16 taps) and the FFT path (128 taps, long sweep).
func TestCrossCorrelateRealMatchesComplex(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, m := range []int{16, 128} {
		tmpl := make([]float64, m)
		for i := range tmpl {
			tmpl[i] = r.NormFloat64()
		}
		fb, err := NewFilterBank([][]float64{tmpl})
		if err != nil {
			t.Fatal(err)
		}
		count := 100
		if m == 128 {
			count = 2048
			if !fb.ShouldUseFFT(count, 1, false) {
				t.Fatal("128-tap 2048-lag query must take the FFT path")
			}
		}
		xr := make([]float64, count+m-1)
		for i := range xr {
			xr[i] = r.NormFloat64()
		}
		rrows := [][]float64{make([]float64, count)}
		crows := [][]complex128{make([]complex128, count)}
		if err := fb.CorrelateRealAll(xr, 0, count, nil, rrows); err != nil {
			t.Fatal(err)
		}
		if err := fb.CorrelateAll(realToComplex(xr), 0, count, nil, crows); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < count; k++ {
			if !almostEqual(rrows[0][k], real(crows[0][k]), 1e-9) || !almostEqual(imag(crows[0][k]), 0, 1e-9) {
				t.Fatalf("m=%d lag %d: real %v vs complex %v", m, k, rrows[0][k], crows[0][k])
			}
		}
	}
}

// TestCrossCorrelateShiftProperty checks that a phase-rotated copy of the
// template placed at a random shift peaks in |correlation| exactly there.
func TestCrossCorrelateShiftProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 8 + r.Intn(24)
		shift := r.Intn(50)
		tmpl := make([]float64, m)
		for i := range tmpl {
			tmpl[i] = r.NormFloat64()
		}
		phase := cmplx.Rect(1, 2*math.Pi*r.Float64())
		x := make([]complex128, shift+m+20)
		for i, v := range tmpl {
			x[shift+i] = complex(v, 0) * phase
		}
		fb, err := NewFilterBank([][]float64{tmpl})
		if err != nil {
			return false
		}
		count := len(x) - m + 1
		rows := [][]complex128{make([]complex128, count)}
		if err := fb.CorrelateAll(x, 0, count, nil, rows); err != nil {
			return false
		}
		return argMaxAbs(rows[0]) == shift
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPeakLagFindsEmbeddedTemplate embeds each of three templates at its
// own offset in a noisy buffer and checks that every bank row peaks at its
// template's offset with a positive in-phase value.
func TestPeakLagFindsEmbeddedTemplate(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	tmpls := make([][]float64, 3)
	for j := range tmpls {
		tmpls[j] = make([]float64, 31)
		for i := range tmpls[j] {
			tmpls[j][i] = r.NormFloat64()
		}
	}
	x := make([]complex128, 200)
	for i := range x {
		x[i] = complex(0.05*r.NormFloat64(), 0.05*r.NormFloat64())
	}
	at := []int{77, 12, 150}
	for j, tmpl := range tmpls {
		for i, v := range tmpl {
			x[at[j]+i] += complex(v, 0)
		}
	}
	fb, err := NewFilterBank(tmpls)
	if err != nil {
		t.Fatal(err)
	}
	count := len(x) - 31 + 1
	rows := make([][]complex128, len(tmpls))
	for j := range rows {
		rows[j] = make([]complex128, count)
	}
	if err := fb.CorrelateAll(x, 0, count, nil, rows); err != nil {
		t.Fatal(err)
	}
	for j := range tmpls {
		if lag := argMaxAbs(rows[j]); lag != at[j] {
			t.Errorf("template %d peaks at %d, want %d", j, lag, at[j])
		}
		if peak := real(rows[j][at[j]]); peak <= 0 {
			t.Errorf("template %d peak = %v, want > 0", j, peak)
		}
	}
}

// TestAutoCorrelationZeroLagIsEnergy checks that correlating a vector with
// itself at lag zero gives its energy, on the direct loop and on the forced
// FFT path.
func TestAutoCorrelationZeroLagIsEnergy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(300)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		xc := realToComplex(x)
		energy := Energy(xc)
		tol := 1e-9 * (1 + energy)
		fb, err := NewFilterBank([][]float64{x})
		if err != nil {
			return false
		}
		rrows := [][]float64{make([]float64, 1)}
		if err := fb.CorrelateRealAll(x, 0, 1, nil, rrows); err != nil || !almostEqual(rrows[0][0], energy, tol) {
			return false
		}
		crows := [][]complex128{make([]complex128, 1)}
		if err := fb.CorrelateAll(xc, 0, 1, nil, crows); err != nil || !complexAlmostEqual(crows[0][0], complex(energy, 0), tol) {
			return false
		}
		fb.overlapAdd(xc, 1, fb.all, nil, crows)
		return complexAlmostEqual(crows[0][0], complex(energy, 0), tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCrossCorrelateFFTEquivalenceProperty drives random lengths and phases
// through the overlap-add FFT path — forced, whatever the cost model would
// pick, so short templates and single-block spans are covered too — and
// through CorrelateAll, and requires agreement with the direct loop within
// 1e-9 of the output scale.
func TestCrossCorrelateFFTEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(300)
		n := m + rng.Intn(2000)
		x := randComplex(rng, n)
		tmpl := randReal(rng, m)
		want := directComplex(x, tmpl)
		fb, err := NewFilterBank([][]float64{tmpl})
		if err != nil {
			t.Fatal(err)
		}
		scale := maxMagC(want)
		if scale == 0 {
			scale = 1
		}
		count := len(want)
		fft := [][]complex128{make([]complex128, count)}
		fb.overlapAdd(x, count, fb.all, nil, fft)
		auto := [][]complex128{make([]complex128, count)}
		if err := fb.CorrelateAll(x, 0, count, nil, auto); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if d := cmplx.Abs(fft[0][k] - want[k]); d > equivTol*scale {
				t.Fatalf("trial %d (n=%d m=%d): FFT lag %d differs by %g (scale %g)", trial, n, m, k, d, scale)
			}
			if d := cmplx.Abs(auto[0][k] - want[k]); d > equivTol*scale {
				t.Fatalf("trial %d (n=%d m=%d): CorrelateAll lag %d differs by %g", trial, n, m, k, d)
			}
		}
	}
}

// TestCrossCorrelateRealFFTEquivalenceProperty is the real-input analogue:
// the forced FFT path and CorrelateRealAll against the direct loop.
func TestCrossCorrelateRealFFTEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(300)
		n := m + rng.Intn(2000)
		x := randReal(rng, n)
		tmpl := randReal(rng, m)
		want := directReal(x, tmpl)
		fb, err := NewFilterBank([][]float64{tmpl})
		if err != nil {
			t.Fatal(err)
		}
		var scale float64
		for _, v := range want {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		if scale == 0 {
			scale = 1
		}
		count := len(want)
		fft := [][]float64{make([]float64, count)}
		fb.overlapAdd(realToComplex(x), count, fb.all, fft, nil)
		auto := [][]float64{make([]float64, count)}
		if err := fb.CorrelateRealAll(x, 0, count, nil, auto); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if d := math.Abs(fft[0][k] - want[k]); d > equivTol*scale {
				t.Fatalf("trial %d (n=%d m=%d): FFT lag %d differs by %g", trial, n, m, k, d)
			}
			if d := math.Abs(auto[0][k] - want[k]); d > equivTol*scale {
				t.Fatalf("trial %d (n=%d m=%d): CorrelateRealAll lag %d differs by %g", trial, n, m, k, d)
			}
		}
	}
}

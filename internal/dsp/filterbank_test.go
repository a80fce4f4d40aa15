package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
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

func maxMagC(x []complex128) float64 {
	var m float64
	for _, v := range x {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// TestCrossCorrelateFFTEquivalenceProperty drives random lengths and phases
// through the complex direct and FFT paths and requires agreement within
// 1e-9 of the output scale, including template lengths straddling the block
// and cutover boundaries.
func TestCrossCorrelateFFTEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(300)
		n := m + rng.Intn(2000)
		x := randComplex(rng, n)
		tmpl := randComplex(rng, m)
		want := CrossCorrelate(x, tmpl)
		got := CrossCorrelateFFT(x, tmpl)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d want %d (n=%d m=%d)", trial, len(got), len(want), n, m)
		}
		scale := maxMagC(want)
		if scale == 0 {
			scale = 1
		}
		for k := range want {
			if d := cmplx.Abs(got[k] - want[k]); d > equivTol*scale {
				t.Fatalf("trial %d (n=%d m=%d): lag %d differs by %g (scale %g)", trial, n, m, k, d, scale)
			}
		}
		// The Auto variant must agree with the direct loop regardless of
		// which path it selects.
		auto := CrossCorrelateAuto(x, tmpl)
		for k := range want {
			if d := cmplx.Abs(auto[k] - want[k]); d > equivTol*scale {
				t.Fatalf("trial %d: Auto lag %d differs by %g", trial, k, d)
			}
		}
	}
}

// TestCrossCorrelateRealFFTEquivalenceProperty is the real-vector analogue.
func TestCrossCorrelateRealFFTEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(300)
		n := m + rng.Intn(2000)
		x := randReal(rng, n)
		tmpl := randReal(rng, m)
		want := CrossCorrelateReal(x, tmpl)
		got := CrossCorrelateRealFFT(x, tmpl)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d want %d", trial, len(got), len(want))
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
		for k := range want {
			if d := math.Abs(got[k] - want[k]); d > equivTol*scale {
				t.Fatalf("trial %d (n=%d m=%d): lag %d differs by %g", trial, n, m, k, d)
			}
		}
		auto := CrossCorrelateRealAuto(x, tmpl)
		for k := range want {
			if d := math.Abs(auto[k] - want[k]); d > equivTol*scale {
				t.Fatalf("trial %d: Auto lag %d differs by %g", trial, k, d)
			}
		}
	}
}

// TestCrossCorrelateFFTDegenerate mirrors CrossCorrelate's nil returns.
func TestCrossCorrelateFFTDegenerate(t *testing.T) {
	if CrossCorrelateFFT(make([]complex128, 3), nil) != nil {
		t.Error("empty template must return nil")
	}
	if CrossCorrelateFFT(make([]complex128, 3), make([]complex128, 5)) != nil {
		t.Error("template longer than input must return nil")
	}
	if CrossCorrelateRealFFT(make([]float64, 3), nil) != nil {
		t.Error("empty real template must return nil")
	}
	if CrossCorrelateRealFFT(make([]float64, 3), make([]float64, 5)) != nil {
		t.Error("real template longer than input must return nil")
	}
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
	if fb.NumTemplates() != 1 || fb.TemplateLen() != 4 {
		t.Errorf("bank shape: %d templates × %d", fb.NumTemplates(), fb.TemplateLen())
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
	n := count + fb.TemplateLen() - 1
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

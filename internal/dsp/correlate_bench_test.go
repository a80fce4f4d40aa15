package dsp

import (
	"math/rand"
	"testing"
)

// BenchmarkCorrelateBankSweep127 measures the receiver-shaped query: ten
// 127-chip preamble templates swept over one alignment window, sharing the
// input transform.
func BenchmarkCorrelateBankSweep127(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const nt = 10
	m := 8 * 127 * 4
	tmpls := make([][]float64, nt)
	for i := range tmpls {
		tmpls[i] = randReal(rng, m)
	}
	fb, err := NewFilterBank(tmpls)
	if err != nil {
		b.Fatal(err)
	}
	count := 127*4 + 17 // the globalAlign window at 4 samples per chip
	env := randReal(rng, count+m+64)
	rows := make([][]float64, nt)
	for i := range rows {
		rows[i] = make([]float64, count)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fb.CorrelateRealAll(env, 0, count, nil, rows); err != nil {
			b.Fatal(err)
		}
	}
}

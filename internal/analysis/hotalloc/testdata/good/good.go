// Package good holds hot-path code hotalloc accepts: capacity-guarded
// growth, cold error exits, unannotated helpers, nil-guarded generator
// initialization, re-seeding and a reviewed suppression.
package good

import (
	"fmt"
	"math/rand"
)

// grow follows the Into convention: allocation only behind a cap guard,
// so steady-state calls reuse the buffer.
//
//cbma:hotpath
func grow(dst []float64, n int) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	return dst
}

// coldError boxes values only on its failing exit, which returns.
//
//cbma:hotpath
func coldError(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("empty input for window %d", 0)
	}
	total := 0.0
	for _, v := range xs {
		total += v
	}
	return total, nil
}

// unannotated helpers may allocate freely.
func unannotated(n int) []float64 {
	return make([]float64, n)
}

// table keeps one deliberate allocation under a reviewed waiver.
//
//cbma:hotpath
func table(n int) []int {
	//cbma:allow hotalloc fixture demonstrates the suppression directive
	return make([]int, n)
}

// reseed re-seeds a reused generator, constructing it only on first use.
//
//cbma:hotpath
func reseed(gens []*rand.Rand, id int, seed int64) *rand.Rand {
	if gens[id] == nil {
		gens[id] = rand.New(rand.NewSource(seed))
	} else {
		gens[id].Seed(seed)
	}
	return gens[id]
}

// Package bad exercises the hotalloc findings: unguarded allocation,
// closures, interface boxing and generator construction inside
// //cbma:hotpath functions.
package bad

import "math/rand"

func sink(v any) { _ = v }

// process is an annotated hot kernel with unguarded allocations.
//
//cbma:hotpath
func process(dst, src []float64) []float64 {
	tmp := make([]float64, len(src)) // want "make in hot path"
	for i, v := range src {
		tmp[i] = v * 2
	}
	dst = append(dst, tmp...) // want "append in hot path"
	return dst
}

// closure builds its kernel per call.
//
//cbma:hotpath
func closure(xs []float64) float64 {
	f := func(v float64) float64 { return v * v } // want "closure in hot path"
	total := 0.0
	for _, v := range xs {
		total += f(v)
	}
	return total
}

// boxes leaks concrete values through interfaces.
//
//cbma:hotpath
func boxes(x int) any {
	var out any
	out = x // want "stored into interface"
	sink(x) // want "converted to interface"
	return out
}

// freshStream builds a new generator for every call.
//
//cbma:hotpath
func freshStream(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed)) // want "rand.New in hot path" "rand.NewSource in hot path"
	return rng.Float64()
}

// elseBranch constructs on the non-nil branch, which runs every call.
//
//cbma:hotpath
func elseBranch(g *rand.Rand, seed int64) *rand.Rand {
	if g == nil {
		return nil
	} else {
		g = rand.New(rand.NewSource(seed)) // want "rand.New in hot path" "rand.NewSource in hot path"
	}
	return g
}

// errGuarded constructs under a nil test of something else, so every
// successful call builds a generator.
//
//cbma:hotpath
func errGuarded(seed int64, err error) *rand.Rand {
	var g *rand.Rand
	if err == nil {
		g = rand.New(rand.NewSource(seed)) // want "rand.New in hot path" "rand.NewSource in hot path"
	}
	return g
}

// shadowed declares a fresh generator inside the guard instead of filling
// the slot, so the slot stays nil and the guard fires on every call.
//
//cbma:hotpath
func shadowed(g *rand.Rand, seed int64) float64 {
	if g == nil {
		g := rand.New(rand.NewSource(seed)) // want "rand.New in hot path" "rand.NewSource in hot path"
		return g.Float64()
	}
	return g.Float64()
}

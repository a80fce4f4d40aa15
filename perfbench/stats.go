package main

import (
	"math"
	"sort"
)

// minTail is the percentile-eligibility rule: a percentile is reported only
// when at least this many samples lie beyond it.
const minTail = 10

// beyond returns how many of n sorted samples lie strictly above the
// interpolation position of quantile q (position (n-1)·q, as in quantile).
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(float64(n-1)*q))
}

// eligible reports whether the q-quantile of n samples may be reported.
func eligible(n int, q float64) bool { return beyond(n, q) >= minTail }

// quantile returns the linearly interpolated q-quantile of xs (sorted in
// place). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := float64(len(xs)-1) * q
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pctl is one reported percentile with the sample count behind it.
type pctl struct {
	Asked    float64 `json:"asked"`
	Used     float64 `json:"used"`
	N        int     `json:"n"`
	Beyond   int     `json:"beyond"`
	Eligible bool    `json:"eligible"`
	Value    float64 `json:"value"`
}

// percentile applies the eligibility rule to the q-quantile of xs. When q
// is not eligible it falls back to the highest eligible quantile (or, with
// fewer than minTail+1 samples, the median) and says so: the contract of
// the result line needs a number, the metadata records which one it is.
func percentile(xs []float64, q float64) pctl {
	p := pctl{Asked: q, Used: q, N: len(xs)}
	if !eligible(len(xs), q) {
		p.Used = 0.5
		if n := len(xs); n > minTail {
			p.Used = math.Max(0.5, float64(n-1-minTail)/float64(n-1))
		}
	}
	p.Beyond = beyond(len(xs), p.Used)
	p.Eligible = p.Used == q && eligible(len(xs), q)
	p.Value = quantile(xs, p.Used)
	return p
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

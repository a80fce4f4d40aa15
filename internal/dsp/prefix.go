package dsp

// PrefixSumInto writes the running sums of x into dst: dst[0] = 0 and
// dst[i+1] = dst[i] + x[i], so any window sum x[lo:hi) is the O(1)
// difference dst[hi] − dst[lo]. dst is grown only when its capacity is
// short and the filled slice is returned, following the hot-path Into
// convention — the receiver builds one prefix array per buffer and answers
// every moving-window query of the sync stage from it.
//
// The windowed sums differ from a freshly accumulated loop only in
// floating-point association order; on integer-valued inputs (and any sums
// below 2^53) they are exact.
//
//cbma:hotpath
func PrefixSumInto(dst, x []float64) []float64 {
	n := len(x) + 1
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	dst[0] = 0
	var acc float64
	for i, v := range x {
		acc += v
		dst[i+1] = acc
	}
	return dst
}

package dsp

import "errors"

// ErrBadFactor is returned for non-positive resampling factors.
var ErrBadFactor = errors.New("dsp: resampling factor must be >= 1")

// DownsampleSumInto writes the consecutive block sums of x — factor samples
// per block, the trailing partial block dropped — into dst, growing it only
// when its capacity is short. It is an unnormalized integrate-and-dump to
// chip rate, which is what the receiver's coarse alignment pass runs its
// decimated correlations on.
//
//cbma:hotpath
func DownsampleSumInto(dst, x []float64, factor int) ([]float64, error) {
	if factor < 1 {
		return nil, ErrBadFactor
	}
	n := len(x) / factor
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		var acc float64
		base := i * factor
		for k := 0; k < factor; k++ {
			acc += x[base+k]
		}
		dst[i] = acc
	}
	return dst, nil
}

// FractionalDelayInPlace applies a purely sub-sample delay (0 ≤ d < 1) to x
// in place by linear interpolation, the head padded with zeros: sample i
// becomes (1−d)·x[i] + d·x[i−1]. The simulator uses it to realize per-tag
// asynchronous clock offsets that are not sample-aligned, after splitting
// off the whole-sample part. The backward iteration reads x[i] and x[i−1]
// before x[i] is overwritten, so no scratch is needed.
//
//cbma:hotpath
func FractionalDelayInPlace(x []complex128, d float64) {
	if d <= 0 || len(x) == 0 {
		return
	}
	for i := len(x) - 1; i > 0; i-- {
		x[i] = x[i]*complex(1-d, 0) + x[i-1]*complex(d, 0)
	}
	// The first sample's predecessor is zero. Adding the zero product
	// (rather than dropping the term) keeps the result bit-identical with
	// the two-term interpolation: it turns a -0 component into +0.
	var zero complex128
	x[0] = x[0]*complex(1-d, 0) + zero*complex(d, 0)
}

package channel

import (
	"math"
	"math/rand"
)

// AWGN adds circularly-symmetric complex Gaussian noise of total power
// powerW (per complex sample) to samples, in place.
func AWGN(rng *rand.Rand, samples []complex128, powerW float64) {
	if powerW <= 0 {
		return
	}
	sigma := math.Sqrt(powerW / 2)
	for i := range samples {
		samples[i] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
	}
}

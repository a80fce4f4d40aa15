package dsp

import "math"

// DB converts a linear power ratio to decibels. Non-positive ratios map to
// -Inf, matching the mathematical limit.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// DBm converts a power in watts to dBm.
func DBm(watts float64) float64 {
	return DB(watts) + 30
}

// FromDBm converts dBm to watts.
func FromDBm(dbm float64) float64 {
	return FromDB(dbm - 30)
}

// SNRdB estimates the signal-to-noise ratio in dB given a measured total
// power (signal+noise) and a known noise power. When the measured power does
// not exceed the noise floor the function returns -Inf; this takes priority
// over a vanishing noise estimate, so a zero-power measurement is -Inf
// rather than +Inf even when the noise power is also zero.
func SNRdB(totalPower, noisePower float64) float64 {
	sig := totalPower - noisePower
	if sig <= 0 {
		return math.Inf(-1)
	}
	if noisePower <= 0 {
		return math.Inf(1)
	}
	return DB(sig / noisePower)
}

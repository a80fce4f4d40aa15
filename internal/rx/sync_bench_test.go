package rx

import (
	"math"
	"math/rand"
	"testing"

	"cbma/internal/dsp"
	"cbma/internal/pn"
)

// benchDetectBuffer is a long noise-only power buffer: the worst case for
// the detector, which must scan every comparator position without ever
// firing. Window sizes match the fig8a quick campaign (31-chip Gold codes
// at 4 samples/chip: short 124, long 496).
func benchDetectBuffer(b *testing.B, n int) []float64 {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	power := make([]float64, n)
	for i := range power {
		power[i] = testNoise * (0.5 + rng.Float64())
	}
	return power
}

func BenchmarkEnergyDetect(b *testing.B) {
	power := benchDetectBuffer(b, 16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found := EnergyDetect(power, 496, 3, 124); found {
			b.Fatal("noise-only buffer must not detect")
		}
	}
}

func BenchmarkEnergyDetectPrefix(b *testing.B) {
	power := benchDetectBuffer(b, 16384)
	var prefix []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The prefix sum is rebuilt every round in the receiver too, so it
		// belongs inside the measured region.
		prefix = dsp.PrefixSumInto(prefix, power)
		if _, found := energyDetectPrefix(prefix, 496, 3, 124); found {
			b.Fatal("noise-only buffer must not detect")
		}
	}
}

// benchAlignState precomputes everything receive() hands the alignment
// stage on the 10-tag gold31 collision: the power and envelope vectors,
// the prefix sums, the coarse detector start and the noise estimate.
func benchAlignState(b *testing.B) (r *Receiver, s *Scratch, env, power []float64, coarse int, noiseW float64) {
	b.Helper()
	set, err := pn.NewGoldSet(5, 10)
	if err != nil {
		b.Fatal(err)
	}
	r, err = New(Config{Codes: set, SamplesPerChip: testSPC, NoiseFloorW: testNoise, SearchChips: 1})
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, 10)
	gains := make([]complex128, 10)
	offsets := []int{0, 1, -2, 3, 0, -1, 2, 0, 1, -3}
	for i := range payloads {
		payloads[i] = []byte{byte(i), 0xA5, byte(3 * i), 0x0F}
		phi := 2 * math.Pi * float64(i) / 11
		gains[i] = amp(14+float64(i)) * complex(math.Cos(phi), math.Sin(phi))
	}
	sig := buildScenario(b, set, payloads, gains, offsets, 60*testSPC, 300)

	power = dsp.MagSquaredInto(nil, sig)
	env = dsp.MagnitudeInto(nil, sig)
	s = &Scratch{powerPrefix: dsp.PrefixSumInto(nil, power)}
	coarse, found := EnergyDetect(power, r.cfg.SyncWindow, r.cfg.SyncThresholdDB, r.shortWindow())
	if !found {
		b.Fatal("benchmark scenario must be detectable")
	}
	noiseW = r.noiseEstimate(power, coarse)
	return r, s, env, power, coarse, noiseW
}

func BenchmarkGlobalAlign(b *testing.B) {
	r, s, env, power, coarse, noiseW := benchAlignState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.globalAlign(s, env, power, coarse, noiseW, -1); !ok {
			b.Fatal("alignment must succeed")
		}
	}
}

func BenchmarkGlobalAlignCoarseFine(b *testing.B) {
	r, s, env, power, coarse, noiseW := benchAlignState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.alignCoarseFine(s, env, power, coarse, noiseW, -1); !ok {
			b.Fatal("alignment must succeed")
		}
	}
}

// BenchmarkReceiveFastVsReference reports the end-to-end receiver cost of
// both sync paths on the same buffer, so the committed BENCH numbers have a
// package-local cross-check.
func BenchmarkReceiveFastVsReference(b *testing.B) {
	for _, ref := range []bool{false, true} {
		name := "fast"
		if ref {
			name = "reference"
		}
		b.Run(name, func(b *testing.B) {
			set, err := pn.NewGoldSet(5, 10)
			if err != nil {
				b.Fatal(err)
			}
			r, err := New(Config{
				Codes: set, SamplesPerChip: testSPC, NoiseFloorW: testNoise,
				SearchChips: 1, ReferenceSync: ref,
			})
			if err != nil {
				b.Fatal(err)
			}
			payloads := make([][]byte, 10)
			gains := make([]complex128, 10)
			for i := range payloads {
				payloads[i] = []byte{byte(i), 0x5A}
				gains[i] = amp(16)
			}
			sig := buildScenario(b, set, payloads, gains, make([]int, 10), 60*testSPC, 200)
			rng := rand.New(rand.NewSource(9))
			noise := noiseOnly(rng, len(sig), testNoise)
			for i := range sig {
				sig[i] += noise[i]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Receive(sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

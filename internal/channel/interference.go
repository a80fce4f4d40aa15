package channel

import (
	"math"
	"math/rand"

	"cbma/internal/dsp"
)

// Interferer adds an external interference waveform into a received sample
// buffer. Implementations are stateless across calls except through rng;
// each Apply covers one observation window at the given sample rate.
type Interferer interface {
	Apply(rng *rand.Rand, samples []complex128, sampleRateHz float64)
}

// WiFiInterferer models coexisting WiFi traffic: CSMA/CA bursts that occupy
// the channel for geometrically-distributed packet durations separated by
// idle backoff gaps, so "the channel is not always occupied" (§VII-C3). The
// in-band interference during a burst is modelled as band-limited Gaussian
// noise at PowerDBm, which is statistically what an OFDM WiFi packet looks
// like to a narrowband correlator.
type WiFiInterferer struct {
	// PowerDBm is the interference power at the receiver while a burst is
	// on the air.
	PowerDBm float64
	// DutyCycle is the long-run fraction of time the channel is busy
	// (0..1, default 0.3 when zero).
	DutyCycle float64
	// MeanBurstSec is the mean burst duration (default 1 ms — a long WiFi
	// aggregate).
	MeanBurstSec float64
}

var _ Interferer = (*WiFiInterferer)(nil)

// Apply implements Interferer.
func (w *WiFiInterferer) Apply(rng *rand.Rand, samples []complex128, sampleRateHz float64) {
	duty := w.DutyCycle
	if duty <= 0 {
		duty = 0.3
	}
	if duty > 1 {
		duty = 1
	}
	meanBurst := w.MeanBurstSec
	if meanBurst <= 0 {
		meanBurst = 1e-3
	}
	burstSamples := meanBurst * sampleRateHz
	if burstSamples < 1 {
		burstSamples = 1
	}
	idleSamples := burstSamples * (1 - duty) / duty
	power := dsp.FromDBm(w.PowerDBm)
	sigma := math.Sqrt(power / 2)
	if duty == 1 {
		for i := range samples {
			samples[i] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
		}
		return
	}
	i := 0
	// Random initial phase of the busy/idle cycle.
	busy := rng.Float64() < duty
	remaining := drawExp(rng, burstSamples)
	if !busy {
		remaining = drawExp(rng, idleSamples)
	}
	for i < len(samples) {
		if busy {
			samples[i] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
		}
		i++
		remaining--
		if remaining <= 0 {
			busy = !busy
			if busy {
				remaining = drawExp(rng, burstSamples)
			} else {
				remaining = drawExp(rng, idleSamples)
			}
		}
	}
}

// BluetoothInterferer models a frequency-hopping Bluetooth link: every
// HopPeriodSec the radio retunes uniformly over its 79 MHz band, so only a
// fraction of hops land inside the backscatter receiver's bandwidth
// (§VII-C3: "Bluetooth is based on frequency-hopping spread spectrum").
// In-band hops contribute a narrowband tone at a random sub-band offset.
type BluetoothInterferer struct {
	// PowerDBm is the in-band interference power during a colliding hop.
	PowerDBm float64
	// HopPeriodSec is the dwell time per hop (default 625 µs, the BT slot).
	HopPeriodSec float64
	// InBandProb is the probability a hop lands in the receiver band
	// (default 20 MHz / 79 MHz ≈ 0.25).
	InBandProb float64
}

var _ Interferer = (*BluetoothInterferer)(nil)

// Apply implements Interferer.
func (b *BluetoothInterferer) Apply(rng *rand.Rand, samples []complex128, sampleRateHz float64) {
	hop := b.HopPeriodSec
	if hop <= 0 {
		hop = 625e-6
	}
	prob := b.InBandProb
	if prob <= 0 {
		prob = 20.0 / 79.0
	}
	if prob > 1 {
		prob = 1
	}
	hopSamples := int(hop * sampleRateHz)
	if hopSamples < 1 {
		hopSamples = 1
	}
	amp := math.Sqrt(dsp.FromDBm(b.PowerDBm))
	for start := 0; start < len(samples); start += hopSamples {
		if rng.Float64() >= prob {
			continue // hop landed out of band
		}
		end := start + hopSamples
		if end > len(samples) {
			end = len(samples)
		}
		f := (rng.Float64() - 0.5) * 0.5 // normalized tone offset within band
		phase := rng.Float64() * 2 * math.Pi
		for i := start; i < end; i++ {
			theta := 2*math.Pi*f*float64(i-start) + phase
			samples[i] += complex(amp*math.Cos(theta), amp*math.Sin(theta))
		}
	}
}

// BurstInterferer models an impulsive in-band jammer: a single high-power
// wideband burst that lands at a uniformly random position inside the
// observation window and lasts an exponentially distributed duration. Unlike
// WiFiInterferer's steady duty-cycled traffic, a burst episode is the fault
// model of §VII-C3's worst case — a co-located radio keying up mid-frame —
// and is what the fault-injection layer (internal/fault) uses for its
// channel-layer burst episodes. Whether a given round suffers a burst at all
// is the caller's draw; Apply always injects exactly one burst.
type BurstInterferer struct {
	// PowerDBm is the burst power at the receiver while it is on the air.
	PowerDBm float64
	// MeanBurstSec is the mean burst duration (default 200 µs).
	MeanBurstSec float64
}

var _ Interferer = (*BurstInterferer)(nil)

// Apply implements Interferer: one wideband Gaussian burst at a random
// offset. Draws happen in a fixed order (start, then duration) so the
// consumed stream length is deterministic.
func (b *BurstInterferer) Apply(rng *rand.Rand, samples []complex128, sampleRateHz float64) {
	if len(samples) == 0 {
		return
	}
	meanBurst := b.MeanBurstSec
	if meanBurst <= 0 {
		meanBurst = 200e-6
	}
	start := int(rng.Float64() * float64(len(samples)))
	dur := int(drawExp(rng, meanBurst*sampleRateHz))
	end := start + dur
	if end > len(samples) {
		end = len(samples)
	}
	sigma := math.Sqrt(dsp.FromDBm(b.PowerDBm) / 2)
	for i := start; i < end; i++ {
		samples[i] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
	}
}

// drawExp draws an exponential variate with the given mean, floored at one
// sample so pathological parameters cannot stall the loop.
func drawExp(rng *rand.Rand, mean float64) float64 {
	v := rng.ExpFloat64() * mean
	if v < 1 {
		v = 1
	}
	return v
}

// ExcitationGate produces the on/off envelope of an intermittent excitation
// signal, e.g. OFDM WiFi packets used as the exciter (§VII-C3 case iv): ON
// runs of mean onSec separated by OFF gaps of mean offSec. Tags reflect only
// while the exciter transmits, but do not know its timing — multiplying this
// envelope into every tag's waveform reproduces the "tags do not know when
// there is signal they can reflect" degradation.
func ExcitationGate(rng *rand.Rand, n int, sampleRateHz, onSec, offSec float64) []float64 {
	return ExcitationGateInto(nil, rng, n, sampleRateHz, onSec, offSec)
}

// ExcitationGateInto is ExcitationGate writing the n-sample envelope into
// dst (grown as needed, fully overwritten) and returning it.
func ExcitationGateInto(dst []float64, rng *rand.Rand, n int, sampleRateHz, onSec, offSec float64) []float64 {
	if onSec <= 0 {
		onSec = 2e-3
	}
	if offSec <= 0 {
		offSec = 1e-3
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	on := rng.Float64() < onSec/(onSec+offSec)
	remaining := drawExp(rng, onSec*sampleRateHz)
	if !on {
		remaining = drawExp(rng, offSec*sampleRateHz)
	}
	for i := 0; i < n; i++ {
		out[i] = 0
		if on {
			out[i] = 1
		}
		remaining--
		if remaining <= 0 {
			on = !on
			if on {
				remaining = drawExp(rng, onSec*sampleRateHz)
			} else {
				remaining = drawExp(rng, offSec*sampleRateHz)
			}
		}
	}
	return out
}

package sim

import "math/rand"

// This file implements the deterministic per-round RNG stream tree: every
// random draw of a collision round comes from a named sub-stream whose seed
// is derived from (Scenario.Seed, run sequence, phase, round index, stream
// name) through a splitmix64-style mixer. Any round's randomness is thereby
// reconstructible without executing the rounds before it — the property
// that lets steady-state rounds run on parallel workers while producing
// bit-identical Metrics to the serial loop (see DESIGN.md, "Execution
// model").

// StreamID names one independent randomness stream within a round.
type StreamID uint64

// The streams of one collision round. Draws within a stream happen in tag
// (or frame) order; draws across streams are independent, so the stage
// pipeline may consume them in any order without changing outcomes.
const (
	// StreamPayload feeds the per-tag payload bytes.
	StreamPayload StreamID = iota
	// StreamJitter feeds the per-tag clock jitter draws.
	StreamJitter
	// StreamFading feeds shadowing and Rician fading (the link draws).
	StreamFading
	// StreamCFO feeds the per-tag carrier-frequency-offset draws.
	StreamCFO
	// StreamNoise feeds the receiver AWGN.
	StreamNoise
	// StreamAckLoss feeds the ACK downlink loss draws.
	StreamAckLoss
	// StreamExcitation feeds the intermittent (OFDM) excitation gate.
	StreamExcitation
	// StreamMultipath feeds the multipath tap realization.
	StreamMultipath
	// StreamInterference feeds the external interferers (WiFi, Bluetooth).
	StreamInterference
	// StreamSetup feeds one-time engine construction draws (random initial
	// impedance states); static-channel fading uses StreamFading under
	// phaseSetup.
	StreamSetup
	// StreamFaultTag feeds the tag-layer fault draws: the one-time stuck
	// and drift assignments (under phaseSetup) and the per-round extra
	// jitter / energy-outage draws (internal/fault).
	StreamFaultTag
	// StreamFaultChannel feeds the channel-layer fault draws (deep fades,
	// interference bursts).
	StreamFaultChannel
	// StreamFaultAck feeds the feedback-layer fault draws (ACK loss,
	// corruption, spurious ACKs).
	StreamFaultAck
	// StreamFaultExec feeds the execution-layer fault plan (injected panics
	// and transient failures) — drawn once per round, before the attempt
	// loop, so retries cannot re-roll their fate.
	StreamFaultExec
	numStreams
)

// Phases partition the round index space so rounds of different execution
// phases can never share a stream seed.
const (
	// phaseSteady covers the parallelizable steady-state collision rounds;
	// the round index is the packet number.
	phaseSteady uint64 = iota
	// phaseAdhoc covers serially executed rounds with a true sequential
	// dependency or external driver: the Algorithm 1 exploration batches,
	// RunSchedule entries and UserDetection trials. The round index is a
	// monotonic per-engine counter.
	phaseAdhoc
	// phaseSetup covers engine-construction draws (round index 0).
	phaseSetup
)

// Distinct salts keep DeriveSeed's label space and the internal stream
// seeds from aliasing each other (fractional bits of sqrt(2) and sqrt(3)).
const (
	deriveSalt uint64 = 0x6a09e667f3bcc908
	streamSalt uint64 = 0xbb67ae8584caa73b
)

// splitmix64 is the finalizing mixer of Steele et al.'s SplitMix64
// generator: a bijection on uint64 with full avalanche, which makes
// iterated mixing of structured inputs (small indices, reused labels)
// collision-resistant in practice.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix64 folds the labels into h, one avalanche round per label so label
// position matters: mix64(h, a, b) != mix64(h, b, a).
func mix64(h uint64, labels ...uint64) uint64 {
	for _, l := range labels {
		h = splitmix64(h ^ splitmix64(l))
	}
	return h
}

// DeriveSeed deterministically derives a child scenario seed from a base
// seed and a sequence of labels (sweep identifier, point index, tag
// count, …). It replaces the additive base.Seed+i+n*1000 arithmetic the
// experiment sweeps once used, which collided across sweeps and across
// (point, tag-count) pairs; distinct label sequences give independent
// seeds.
func DeriveSeed(seed int64, labels ...uint64) int64 {
	return int64(mix64(splitmix64(uint64(seed))^deriveSalt, labels...))
}

// streamSeed derives the seed of one named stream of one round.
func streamSeed(seed int64, runSeq, phase, round uint64, id StreamID) int64 {
	return int64(mix64(splitmix64(uint64(seed))^streamSalt, runSeq, phase, round, uint64(id)))
}

// roundStreams lazily materializes the named RNG streams of one round.
// The generators themselves live in gens — normally a round arena's, reused
// across rounds — and a stream's generator is re-seeded on its first use in
// the round (see rng), so no round allocates a source. A roundStreams value
// belongs to a single goroutine (the worker executing the round).
type roundStreams struct {
	seed   int64
	runSeq uint64
	phase  uint64
	round  uint64
	gens   *[numStreams]*rand.Rand
	// live has bit id set once stream id has been seeded for this round.
	live uint32
}

// live holds one bit per stream; this fails to compile if they outgrow it.
var _ [32 - numStreams]struct{}

// newRoundStreams prepares the stream tree node for one round, drawing
// from the generators in gens. runSeq distinguishes repeated
// Run/RunSchedule calls on the same engine (each placement of a deployment
// study must see fresh randomness); phase and round locate the round within
// the run.
func newRoundStreams(seed int64, runSeq, phase, round uint64, gens *[numStreams]*rand.Rand) roundStreams {
	return roundStreams{seed: seed, runSeq: runSeq, phase: phase, round: round, gens: gens}
}

// rng returns the round's generator for the given stream, seeding it on
// first use. Re-seeding a reused generator is bit-identical to building a
// fresh rand.NewSource from the same seed: Seed resets the whole source
// state and the Rand's buffered Read bytes. Only the first use of a
// generator slot ever allocates one.
//
//cbma:hotpath
func (rs *roundStreams) rng(id StreamID) *rand.Rand {
	bit := uint32(1) << id
	if rs.live&bit == 0 {
		seed := streamSeed(rs.seed, rs.runSeq, rs.phase, rs.round, id)
		if rs.gens[id] == nil {
			rs.gens[id] = rand.New(rand.NewSource(seed))
		} else {
			rs.gens[id].Seed(seed)
		}
		rs.live |= bit
	}
	return rs.gens[id]
}

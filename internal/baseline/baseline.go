// Package baseline implements the comparison systems the paper measures
// CBMA against: the single-tag TDMA round-robin that anchors the ">10×
// throughput" headline claim, a framed-slotted-ALOHA MAC (the standard
// backscatter anti-collision scheme the paper's §I criticizes), an FDMA
// model, and the structured contents of Table I (the existing-systems
// summary).
package baseline

import (
	"errors"
	"fmt"
	"math/rand"

	"cbma/internal/sim"
	"cbma/internal/stats"
)

// ErrBadConfig reports invalid baseline parameters.
var ErrBadConfig = errors.New("baseline: invalid configuration")

// Labels for sim.DeriveSeed: the packet-level baselines' slot lotteries.
// Kept clear of internal/paperbench's figure labels (1–11, 201–202, 301),
// internal/sim's fault sweeps (12) and internal/core's (203).
const (
	seedFSA   uint64 = 210
	seedFDMA  uint64 = 211
	seedQAlgo uint64 = 212
)

// Result summarizes a baseline MAC run.
type Result struct {
	// Scheme names the MAC ("tdma", "fsa", "fdma", "cbma").
	Scheme string
	// FramesSent / FramesDelivered count link-layer frames.
	FramesSent, FramesDelivered int
	// AirtimeSeconds includes per-slot control overhead.
	AirtimeSeconds float64
	// GoodputBps is delivered payload bits per second across the system.
	GoodputBps float64
	// FER is the frame error rate.
	FER float64
}

// TDMAConfig parameterizes the single-tag round-robin baseline.
type TDMAConfig struct {
	// Rounds is the number of full polling cycles (every tag gets one slot
	// per cycle).
	Rounds int
	// SlotOverheadSec models the polling/guard overhead the reader spends
	// per slot; real RFID-style MACs pay a query/ack exchange. Zero
	// selects 200 µs.
	SlotOverheadSec float64
}

// TDMA runs the single-tag baseline: the same deployment and radio as the
// CBMA scenario, but tags transmit strictly one at a time. Because only one
// tag occupies the channel, there is no multi-access interference — but the
// channel is idle for every other tag, which is exactly the capacity the
// paper's concurrent transmissions reclaim.
func TDMA(scn sim.Scenario, cfg TDMAConfig) (Result, error) {
	if cfg.Rounds <= 0 {
		return Result{}, fmt.Errorf("%w: rounds must be positive", ErrBadConfig)
	}
	if cfg.SlotOverheadSec == 0 {
		cfg.SlotOverheadSec = 200e-6
	}
	scn.Packets = 1 // scheduling is explicit below
	e, err := sim.NewEngine(scn)
	if err != nil {
		return Result{}, err
	}
	var schedule [][]int
	for r := 0; r < cfg.Rounds; r++ {
		for id := 0; id < scn.NumTags; id++ {
			schedule = append(schedule, []int{id})
		}
	}
	m, err := e.RunSchedule(schedule)
	if err != nil {
		return Result{}, err
	}
	slots := float64(len(schedule))
	air := m.AirtimeSeconds + slots*cfg.SlotOverheadSec
	return Result{
		Scheme:          "tdma",
		FramesSent:      m.FramesSent,
		FramesDelivered: m.FramesDelivered,
		AirtimeSeconds:  air,
		GoodputBps:      stats.RatioOrZero(float64(m.FramesDelivered)*float64(8*scn.PayloadBytes), air),
		FER:             m.FER,
	}, nil
}

// CBMA runs the concurrent system under the same accounting as the
// baselines, so results are directly comparable.
func CBMA(scn sim.Scenario) (Result, error) {
	e, err := sim.NewEngine(scn)
	if err != nil {
		return Result{}, err
	}
	m, err := e.Run()
	if err != nil {
		return Result{}, err
	}
	return Result{
		Scheme:          "cbma",
		FramesSent:      m.FramesSent,
		FramesDelivered: m.FramesDelivered,
		AirtimeSeconds:  m.AirtimeSeconds,
		GoodputBps:      m.GoodputBps,
		FER:             m.FER,
	}, nil
}

// FSAConfig parameterizes the framed-slotted-ALOHA baseline.
type FSAConfig struct {
	// FrameSlots is the number of slots per ALOHA frame (the reader
	// broadcasts this; §I notes that need for central coordination).
	FrameSlots int
	// Frames is how many ALOHA frames to simulate.
	Frames int
	// SingleTagFER is the delivery failure probability of an uncontended
	// slot; calibrate it from a single-tag waveform run. Zero means ideal
	// slots.
	SingleTagFER float64
	// SlotSeconds is the slot duration (frame airtime + guard). Zero
	// derives 1.5 ms.
	SlotSeconds float64
	// PayloadBytes sizes the goodput accounting. Zero selects 16.
	PayloadBytes int
	// Seed drives the slot lottery.
	Seed int64
	// Rand, when non-nil, supplies the slot lottery directly (e.g. a
	// stream derived by the enclosing experiment); otherwise a generator is
	// derived from Seed through sim.DeriveSeed.
	Rand *rand.Rand
}

// FSA simulates framed slotted ALOHA at the packet level: each of n tags
// picks a uniform slot per frame; slots with exactly one occupant succeed
// with probability 1−SingleTagFER, contended slots are lost (no capture).
// Backscatter tags cannot carrier-sense (§II-B), which is why ALOHA — not
// CSMA — is the incumbent, and why its efficiency caps near 1/e.
func FSA(n int, cfg FSAConfig) (Result, error) {
	if n <= 0 || cfg.Frames <= 0 || cfg.FrameSlots <= 0 {
		return Result{}, fmt.Errorf("%w: tags, frames and slots must be positive", ErrBadConfig)
	}
	if cfg.SlotSeconds == 0 {
		cfg.SlotSeconds = 1.5e-3
	}
	if cfg.PayloadBytes == 0 {
		cfg.PayloadBytes = 16
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, seedFSA)))
	}
	var sent, delivered int
	for f := 0; f < cfg.Frames; f++ {
		occupancy := make([]int, cfg.FrameSlots)
		for t := 0; t < n; t++ {
			occupancy[rng.Intn(cfg.FrameSlots)]++
			sent++
		}
		for _, occ := range occupancy {
			if occ == 1 && rng.Float64() >= cfg.SingleTagFER {
				delivered++
			}
		}
	}
	air := float64(cfg.Frames*cfg.FrameSlots) * cfg.SlotSeconds
	return Result{
		Scheme:          "fsa",
		FramesSent:      sent,
		FramesDelivered: delivered,
		AirtimeSeconds:  air,
		GoodputBps:      stats.RatioOrZero(float64(delivered)*float64(8*cfg.PayloadBytes), air),
		FER:             1 - stats.RatioOrZero(float64(delivered), float64(sent)),
	}, nil
}

// FDMAConfig parameterizes the FDMA baseline.
type FDMAConfig struct {
	// Channels is how many orthogonal frequency channels the band divides
	// into; each costs the tag an agile synthesizer (§I: "the cost of the
	// tag is increased").
	Channels int
	// Frames is the number of frames each tag sends.
	Frames int
	// SingleTagFER is the per-channel delivery failure probability.
	SingleTagFER float64
	// FrameSeconds is one frame's airtime per channel. Zero derives 1.3 ms.
	FrameSeconds float64
	// PayloadBytes sizes the goodput accounting. Zero selects 16.
	PayloadBytes int
	// Seed drives channel assignment collisions when tags outnumber
	// channels.
	Seed int64
	// Rand, when non-nil, supplies the slot lottery directly; otherwise a
	// generator is derived from Seed through sim.DeriveSeed.
	Rand *rand.Rand
}

// FDMA models frequency-division access at the packet level: tags are
// assigned channels round-robin; when tags outnumber channels, a channel's
// occupants time-share it. The whole band is consumed regardless of tag
// count — the fixed-spectrum cost §I criticizes.
func FDMA(n int, cfg FDMAConfig) (Result, error) {
	if n <= 0 || cfg.Frames <= 0 || cfg.Channels <= 0 {
		return Result{}, fmt.Errorf("%w: tags, frames and channels must be positive", ErrBadConfig)
	}
	if cfg.FrameSeconds == 0 {
		cfg.FrameSeconds = 1.3e-3
	}
	if cfg.PayloadBytes == 0 {
		cfg.PayloadBytes = 16
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, seedFDMA)))
	}
	// Tags per channel (round-robin assignment).
	perChannel := make([]int, cfg.Channels)
	for t := 0; t < n; t++ {
		perChannel[t%cfg.Channels]++
	}
	var sent, delivered int
	var air float64
	for _, occ := range perChannel {
		if occ == 0 {
			continue
		}
		// occupants time-share the channel: occ × Frames slots.
		slots := occ * cfg.Frames
		sent += slots
		for s := 0; s < slots; s++ {
			if rng.Float64() >= cfg.SingleTagFER {
				delivered++
			}
		}
	}
	// Channels run in parallel: airtime is the busiest channel's schedule.
	maxOcc := 0
	for _, occ := range perChannel {
		if occ > maxOcc {
			maxOcc = occ
		}
	}
	air = float64(maxOcc*cfg.Frames) * cfg.FrameSeconds
	return Result{
		Scheme:          "fdma",
		FramesSent:      sent,
		FramesDelivered: delivered,
		AirtimeSeconds:  air,
		GoodputBps:      stats.RatioOrZero(float64(delivered)*float64(8*cfg.PayloadBytes), air),
		FER:             1 - stats.RatioOrZero(float64(delivered), float64(sent)),
	}, nil
}

// MeasureSingleTagFER calibrates the packet-level baselines' uncontended
// slot failure probability from a one-tag waveform run of the given
// scenario.
func MeasureSingleTagFER(scn sim.Scenario) (float64, error) {
	scn.NumTags = 1
	scn.Deployment.Tags = nil
	e, err := sim.NewEngine(scn)
	if err != nil {
		return 0, err
	}
	m, err := e.Run()
	if err != nil {
		return 0, err
	}
	return m.FER, nil
}

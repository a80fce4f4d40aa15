package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"cbma/internal/channel"
	"cbma/internal/dsp"
	"cbma/internal/fault"
	"cbma/internal/rx"
	"cbma/internal/tag"
	"cbma/internal/trace"
)

// This file is the staged round pipeline. One collision round runs as three
// stages with isolated state:
//
//	buildTransmissions  tags + RNG streams -> per-tag payloads and delays
//	mixChannel          waveforms + links  -> one received I/Q buffer
//	decodeAndAck        receiver + payload matching -> roundResult
//
// mixChannel synthesizes each tag's waveform itself, one tag at a time, so
// a round holds a single frame of waveform samples whatever its tag count.
//
// The first two stages are pure with respect to engine state: they read the
// scenario and tag configuration and write only into the caller's
// roundArena scratch. decodeAndAck needs a receiver (workers own clones)
// but also mutates nothing on the engine; the only engine-state mutations
// of a round — tag ACK counters and trace recording — are deferred to
// Engine.commitRound so parallel workers can execute rounds out of order
// while feedback and recording stay in round order.

// transmissionSet is the output of buildTransmissions: the active tags'
// payloads and placement, backed by roundArena storage.
type transmissionSet struct {
	active   []*tag.Tag
	payloads [][]byte
	// offsets holds the integer sample placement of each waveform relative
	// to the nominal frame start; delays the raw (fractional) per-tag delay
	// in samples before re-referencing (to minDelay, the earliest tag's),
	// kept for the fractional-delay filter and trace recording.
	offsets  []int
	delays   []float64
	minDelay float64
	// maxEnd is the last occupied sample index relative to the lead region.
	maxEnd int
}

// roundResult captures one collision round. Every transmitting tag is in
// the round's active slice, so per-tag accounting indexes into it.
type roundResult struct {
	sent     int // frames transmitted (== active tags)
	detected int // frames whose sender the receiver detected
	falsePos int // decoded-OK frames whose payload did not match
	samples  int // buffer length, for airtime accounting
	frames   []rx.DecodedFrame
	// delivered indexes into the active slice: tags whose frame decoded
	// with correct payload and CRC. acked indexes the tags whose ACK
	// survived the downlink loss draw, applied to tag state by
	// Engine.commitRound. Both are allocated per round: parallel results
	// wait for the in-order commit and the event sink, so they must not
	// alias arena scratch.
	delivered []int
	acked     []int
	// recorded carries the round's trace samples when recording is on.
	recorded []trace.TagSample
	// quarantined marks a round abandoned by the resilient runner (panic or
	// exhausted transient retries): it contributes degradation accounting
	// but no frame counters or tag feedback. retries counts the attempts
	// beyond the first; faults the injected faults that fired.
	quarantined bool
	retries     int
	faults      fault.Counters
}

// resilience converts only the round's degradation accounting into a
// Metrics partial — what the exploration (adhoc) rounds contribute, since
// their frame counters are warm-up, not measurement.
func (r roundResult) resilience() Metrics {
	m := Metrics{RoundRetries: r.retries, Faults: r.faults}
	if r.quarantined {
		m.RoundsQuarantined = 1
	} else {
		m.RoundsExecuted = 1
	}
	return m
}

// addTo folds the round's counters into the run's metrics m, whose
// PerTag* slices are sized to the engine's tag count; active is the
// round's transmitting set. A quarantined round carries only its
// degradation accounting. Every counter is integral, so adding rounds one
// by one in round order equals merging per-round partials (Metrics.Merge).
func (r roundResult) addTo(m *Metrics, active []*tag.Tag) {
	m.RoundRetries += r.retries
	m.Faults.Merge(r.faults)
	if r.quarantined {
		m.RoundsQuarantined++
		return
	}
	m.RoundsExecuted++
	m.FramesSent += r.sent
	m.FramesDetected += r.detected
	m.FramesDelivered += len(r.delivered)
	m.FalseFrames += r.falsePos
	m.AirtimeSamples += int64(r.samples)
	for _, tg := range active {
		m.PerTagSent[tg.ID()]++
	}
	for _, idx := range r.delivered {
		m.PerTagDelivered[active[idx].ID()]++
	}
}

// executeRound runs the full stage pipeline for one round using the given
// RNG streams, scratch and receiver. It does not mutate engine or tag
// state; callers must follow up with Engine.commitRound.
//
//cbma:hotpath
func (e *Engine) executeRound(active []*tag.Tag, rs *roundStreams, a *roundArena, recv *rx.Receiver) (roundResult, error) {
	var res roundResult
	if len(active) == 0 {
		return res, ErrBadTagCount
	}
	// Trace replay substitutes the recorded delays before waveform
	// placement and the recorded gains during mixing. The player is
	// stateful and ordered, so replay runs only on the serial path (see
	// Engine.workerCount).
	var replay *trace.Round
	if e.player != nil {
		r, err := e.player.Next()
		if err != nil {
			return res, fmt.Errorf("sim: replaying round: %w", err)
		}
		replay = &r
	}
	// Stage spans are obs.Span values on the observer's injected clock:
	// allocation-free (hotpath-compatible) and invisible to the result path.
	var fc fault.Counters
	sp := e.eobs.o.Start(e.eobs.build)
	tx, err := e.buildTransmissions(active, rs, a, replay, &fc)
	sp.End()
	if err != nil {
		return res, err
	}
	sp = e.eobs.o.Start(e.eobs.mix)
	buf, recorded, err := e.mixChannel(tx, rs, a, replay, &fc)
	sp.End()
	if err != nil {
		return res, err
	}
	sp = e.eobs.o.Start(e.eobs.decode)
	res, err = e.decodeAndAck(recv, buf, tx, rs, a, &fc)
	sp.End()
	res.recorded = recorded
	res.faults = fc
	return res, err
}

// buildTransmissions is the pure transmit stage: it draws each active
// tag's clock jitter and payload and places its frame in the round. The
// waveforms themselves are synthesized one at a time by mixChannel, so a
// round holds one frame of samples per worker, not one per tag. All
// storage comes from a.
//
//cbma:hotpath
func (e *Engine) buildTransmissions(active []*tag.Tag, rs *roundStreams, a *roundArena, replay *trace.Round, fc *fault.Counters) (transmissionSet, error) {
	spc := e.scn.SamplesPerChip()
	a.grow(len(active))
	tx := transmissionSet{
		active:   active,
		payloads: a.payloads,
		offsets:  a.offsets,
		delays:   a.delays,
	}
	minDelay := math.Inf(1)
	jitter := rs.rng(StreamJitter)
	// Tag-layer fault draws (extra jitter, energy outages) come from the
	// round's dedicated fault stream, in tag order: jitter draws in this
	// loop, outage draws in mixChannel's waveform loop.
	var ftag *rand.Rand
	if e.inj != nil && e.inj.TagRoundFaults() {
		ftag = rs.rng(StreamFaultTag)
	}
	for i, tg := range active {
		// Per-tag clock offset: fixed extra delay (Fig. 11) plus uniform
		// jitter, in (fractional) samples.
		delayChips := e.scn.JitterChips * (jitter.Float64() - 0.5)
		if tg.ID() < len(e.scn.ExtraDelayChips) {
			delayChips += e.scn.ExtraDelayChips[tg.ID()]
		}
		if e.inj != nil {
			delayChips += e.inj.DriftChips(tg.ID())
			if ftag != nil {
				delayChips += e.inj.ExtraJitter(ftag)
			}
		}
		tx.delays[i] = delayChips * float64(spc)
		if tx.delays[i] < minDelay {
			minDelay = tx.delays[i]
		}
	}
	if replay != nil {
		minDelay = math.Inf(1)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, tg := range active {
			s, ok := replay.Sample(tg.ID())
			if !ok {
				return tx, fmt.Errorf("sim: %w: tag %d absent in round %d",
					trace.ErrTagCount, tg.ID(), replay.Seq)
			}
			lo, hi = min(lo, s.DelayChips), max(hi, s.DelayChips)
			tx.delays[i] = s.DelayChips * float64(spc)
			if tx.delays[i] < minDelay {
				minDelay = tx.delays[i]
			}
		}
		if err := checkDelaySpread(hi-lo, e.frameSamples/spc); err != nil {
			return tx, fmt.Errorf("%w (replayed round %d)", err, replay.Seq)
		}
	}
	tx.minDelay = minDelay
	payload := rs.rng(StreamPayload)
	for i := range active {
		if cap(tx.payloads[i]) < e.scn.PayloadBytes {
			tx.payloads[i] = make([]byte, e.scn.PayloadBytes)
		}
		p := tx.payloads[i][:e.scn.PayloadBytes]
		payload.Read(p)
		tx.payloads[i] = p
		// Re-reference delays to the earliest tag so none is clamped; the
		// integer part places the frame, the fractional part is applied
		// to the waveform by mixChannel.
		off := int(tx.delays[i] - minDelay)
		tx.offsets[i] = off
		if end := e.leadSamples + off + e.frameSamples; end > tx.maxEnd {
			tx.maxEnd = end
		}
	}
	return tx, nil
}

// mixChannel is the pure channel stage: for each tag in turn it synthesizes
// the spread waveform into the arena's one waveform buffer, applies the
// fractional-sample delay, the per-tag CFO phase ramp (when configured) and
// any energy outage, realizes the tag's link and accumulates the gained
// waveform into one I/Q buffer; then it applies the shared channel effects
// (excitation gating, multipath, interference, AWGN). Each stream is still
// drawn in tag order, so interleaving the per-tag steps changes no draw.
// It returns the received buffer and, when recording is enabled, the
// round's trace samples.
//
//cbma:hotpath
func (e *Engine) mixChannel(tx transmissionSet, rs *roundStreams, a *roundArena, replay *trace.Round, fc *fault.Counters) ([]complex128, []trace.TagSample, error) {
	spc := e.scn.SamplesPerChip()
	tail := 2 * e.set.ChipLength() * spc
	buf := a.mixFor(tx.maxEnd+tail, e.mixSpan)

	// Optional intermittent (OFDM) excitation gate, shared by all tags:
	// they all reflect the same exciter.
	var gate []float64
	if e.scn.OFDMExcitation {
		a.gate = channel.ExcitationGateInto(a.gate, rs.rng(StreamExcitation), len(buf), e.scn.SampleRateHz, 2e-3, 1e-3)
		gate = a.gate
	}

	// Channel-layer fault draws (deep fades in tag order, then the burst)
	// come from the round's dedicated fault stream.
	var fch *rand.Rand
	if e.inj != nil && e.inj.ChannelRoundFaults() {
		fch = rs.rng(StreamFaultChannel)
	}
	var ftag *rand.Rand
	if e.inj != nil && e.inj.TagRoundFaults() {
		ftag = rs.rng(StreamFaultTag)
	}

	for i, tg := range tx.active {
		w, err := tg.WaveformInto(a.wave, tx.payloads[i])
		if err != nil {
			return nil, nil, err
		}
		a.wave = w
		// The fractional part of the re-referenced delay is what starves
		// the decoder at low oversampling (Fig. 9(a)): at one sample per
		// chip a 0.2-chip skew cannot be re-aligned.
		d := tx.delays[i] - tx.minDelay
		if frac := d - float64(tx.offsets[i]); frac > 1e-9 {
			dsp.FractionalDelayInPlace(w, frac)
		}
		if e.scn.CFOppm != 0 {
			// Per-frame CFO draw: a uniform offset of ±CFOppm of the
			// carrier, as a per-sample baseband phase ramp.
			dfHz := e.scn.Channel.CarrierHz * e.scn.CFOppm / 1e6 * (2*rs.rng(StreamCFO).Float64() - 1)
			step := 2 * math.Pi * dfHz / e.scn.SampleRateHz
			rot := complex(math.Cos(step), math.Sin(step))
			phasor := complex(1, 0)
			for k := range w {
				w[k] *= phasor
				phasor *= rot
			}
		}
		if ftag != nil {
			// Mid-frame energy outage: the harvested supply dies after a
			// drawn fraction of the frame and the reflection goes silent.
			if frac, hit := e.inj.EnergyOutage(ftag); hit {
				cut := int(frac * float64(len(w)))
				for k := cut; k < len(w); k++ {
					w[k] = 0
				}
				fc.EnergyOutages++
			}
		}

		dg, err := tg.DeltaGamma()
		if err != nil {
			return nil, nil, err
		}
		var link channel.Link
		switch {
		case replay != nil:
			s, _ := replay.Sample(tg.ID())
			link = channel.Link{Gain: complex(s.GainRe, s.GainIm)}
		case e.scn.StaticChannel:
			link = e.scn.Channel.LinkWithFading(
				e.scn.Deployment.ES, tg.Position(), e.scn.Deployment.RX, dg,
				e.staticFading[tg.ID()])
		default:
			link = e.scn.Channel.DrawLink(
				e.scn.Deployment.ES, tg.Position(), e.scn.Deployment.RX, dg, rs.rng(StreamFading))
		}
		if fch != nil {
			if scale, hit := e.inj.DeepFade(fch); hit {
				link.Gain *= complex(scale, 0)
				fc.DeepFades++
			}
		}
		a.gains[i] = link.Gain
		base := e.leadSamples + tx.offsets[i]
		dst := buf[base : base+len(w)]
		if gate != nil {
			g := gate[base : base+len(w)]
			for k, v := range w {
				dst[k] += v * link.Gain * complex(g[k], 0)
			}
		} else {
			for k, v := range w {
				dst[k] += v * link.Gain
			}
		}
	}

	if e.scn.Multipath != nil {
		a.echo = e.scn.Multipath.ApplyInto(a.echo, rs.rng(StreamMultipath), buf, e.scn.SampleRateHz)
		buf = a.echo
	}
	for _, intf := range e.scn.Interferers {
		intf.Apply(rs.rng(StreamInterference), buf, e.scn.SampleRateHz)
	}
	if fch != nil && e.inj.Burst(fch) {
		e.inj.ApplyBurst(fch, buf, e.scn.SampleRateHz)
		fc.Bursts++
	}
	channel.AWGN(rs.rng(StreamNoise), buf, e.scn.Channel.NoiseFloorW())
	var recorded []trace.TagSample
	if e.recorder != nil {
		recorded = traceSamples(tx, a.gains, spc)
	}
	return buf, recorded, nil
}

// traceSamples snapshots the round's per-tag channel draws for the
// recorder, off the hot path (it runs only when recording is on). It
// allocates a fresh slice per round deliberately: parallel execution
// buffers whole roundResults until the in-order commit, so recorded
// samples must not alias reusable worker scratch.
func traceSamples(tx transmissionSet, gains []complex128, spc int) []trace.TagSample {
	samples := make([]trace.TagSample, len(tx.active))
	for i, tg := range tx.active {
		samples[i] = trace.TagSample{
			TagID:      tg.ID(),
			GainRe:     real(gains[i]),
			GainIm:     imag(gains[i]),
			DelayChips: tx.delays[i] / float64(spc),
			Impedance:  int(tg.Impedance()),
		}
	}
	return samples
}

// decodeAndAck is the receive stage: it runs the receiver over the mixed
// buffer, verifies payloads against the transmissions, and draws the ACK
// downlink losses. The resulting ACKs are reported in roundResult.acked
// rather than applied, keeping the stage free of tag mutation.
func (e *Engine) decodeAndAck(recv *rx.Receiver, buf []complex128, tx transmissionSet, rs *roundStreams, a *roundArena, fc *fault.Counters) (roundResult, error) {
	var res roundResult
	// The engine is also the reader: it triggered the tags, so it knows
	// the nominal reply start (rx.ReceiveAt's timing reference).
	out, err := recv.ReceiveAtWith(&a.rx, buf, e.leadSamples)
	if err != nil {
		return res, err
	}
	n := len(tx.active)
	res.delivered = make([]int, 0, n)
	res.acked = make([]int, 0, n)
	res.sent = n
	res.samples = len(buf)
	res.frames = out.Frames
	for _, f := range out.Frames {
		if activeIndex(tx.active, f.TagID) >= 0 {
			res.detected++
		}
	}
	for _, f := range out.Frames {
		if !f.OK {
			continue
		}
		idx := activeIndex(tx.active, f.TagID)
		if idx < 0 {
			res.falsePos++
			continue
		}
		if bytes.Equal(f.Payload, tx.payloads[idx]) {
			res.delivered = append(res.delivered, idx)
			// The ACK downlink may itself be lossy (Scenario.AckLossProb);
			// receiver-side delivery metrics are unaffected, only the
			// tag's feedback loop is starved. The fault layer's feedback
			// faults (loss, corruption) ride on top, drawn per delivered
			// frame in frame order from the dedicated fault stream.
			if e.scn.AckLossProb <= 0 || rs.rng(StreamAckLoss).Float64() >= e.scn.AckLossProb {
				heard := true
				if e.inj != nil && e.inj.AckFaults() {
					switch e.inj.AckFate(rs.rng(StreamFaultAck)) {
					case fault.AckLost:
						heard = false
						fc.AcksLost++
					case fault.AckCorrupted:
						heard = false
						fc.AcksCorrupted++
					}
				}
				if heard {
					res.acked = append(res.acked, idx)
				}
			}
		} else {
			res.falsePos++
		}
	}
	// Spurious ACKs: each tag that did not hear a (real) ACK this round may
	// falsely detect one, poisoning the feedback loop in the optimistic
	// direction. Drawn in active order after the per-frame fates, so the
	// fault stream's consumption is position-independent.
	if e.inj != nil && e.inj.SpuriousAcks() {
		srng := rs.rng(StreamFaultAck)
		heard := make([]bool, n)
		for _, idx := range res.acked {
			heard[idx] = true
		}
		for idx := range tx.active {
			if !heard[idx] && e.inj.SpuriousAck(srng) {
				res.acked = append(res.acked, idx)
				fc.SpuriousAcks++
			}
		}
	}
	return res, nil
}

// activeIndex returns the index of the tag with the given ID in active, or
// -1 when it did not transmit this round.
func activeIndex(active []*tag.Tag, id int) int {
	for i, tg := range active {
		if tg.ID() == id {
			return i
		}
	}
	return -1
}

// commitRound applies the round's engine-state mutations — the tags' MAC
// counters and trace recording. Under parallel execution it is called in
// round order by the coordinating goroutine, so tag feedback and recorded
// traces are identical to the serial loop's. A quarantined round commits no
// tag feedback (its frames never aired) but still records an empty trace
// round so the trace's Seq numbering stays aligned with the round index.
func (e *Engine) commitRound(active []*tag.Tag, res roundResult) {
	if !res.quarantined {
		for _, tg := range active {
			tg.NoteFrameSent()
		}
		for _, idx := range res.acked {
			active[idx].NoteAck()
		}
	}
	if e.recorder != nil {
		e.recorder.Record(res.recorded)
	}
	round := e.committed
	e.committed++
	e.eobs.record(round, res)
}

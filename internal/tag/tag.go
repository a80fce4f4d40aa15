package tag

import (
	"errors"
	"fmt"

	"cbma/internal/frame"
	"cbma/internal/geom"
	"cbma/internal/pn"
)

// Errors returned by the tag pipeline.
var (
	ErrBadSamplesPerChip = errors.New("tag: samples per chip must be >= 1")
	ErrNilCode           = errors.New("tag: spreading code is required")
)

// Config holds the static configuration of a tag.
type Config struct {
	// Code is the tag's PN spreading code.
	Code pn.Code
	// SamplesPerChip is the receiver-rate oversampling of each chip.
	SamplesPerChip int
	// Frame configures link-layer framing (preamble length etc.).
	Frame frame.Config
	// Bank is the antenna impedance bank; zero value selects DefaultBank.
	Bank Bank
}

// withDefaults validates cfg and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if err := c.Code.Validate(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrNilCode, err)
	}
	if c.SamplesPerChip == 0 {
		c.SamplesPerChip = 4
	}
	if c.SamplesPerChip < 1 {
		return c, ErrBadSamplesPerChip
	}
	if len(c.Bank.Loads) == 0 {
		c.Bank = DefaultBank()
	}
	return c, nil
}

// Tag is one backscatter node. It is not safe for concurrent use; the
// simulation engine owns each tag on a single goroutine.
type Tag struct {
	id  int
	cfg Config
	pos geom.Point
	z   ImpedanceState
	// stuck marks a failed SPDT switch (fault injection): the tag stays in
	// its current state and silently ignores impedance commands, which is
	// exactly what the hardware does — the controller cannot observe the
	// failure except through the feedback loop.
	stuck bool
	// Counters for the MAC layer's ACK bookkeeping.
	framesSent int
	acksHeard  int
}

// New constructs a tag with the given identifier, configuration and
// position. Tags power up in the strongest impedance state, matching the
// prototype's default of maximum reflection.
func New(id int, cfg Config, pos geom.Point) (*Tag, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Tag{id: id, cfg: c, pos: pos, z: ImpedanceState(c.Bank.States())}, nil
}

// ID returns the tag identifier (also its code index).
func (t *Tag) ID() int { return t.id }

// Position returns the tag's location.
func (t *Tag) Position() geom.Point { return t.pos }

// MoveTo relocates the tag — used by the node-selection scheme when a "bad"
// tag must be re-placed (§V-C).
func (t *Tag) MoveTo(p geom.Point) { t.pos = p }

// Code returns the tag's spreading code.
func (t *Tag) Code() pn.Code { return t.cfg.Code }

// Impedance returns the current impedance state.
func (t *Tag) Impedance() ImpedanceState { return t.z }

// SetImpedance selects an impedance state. A stuck switch (SetStuck)
// silently ignores the command — the caller has no way to sense the failed
// actuator, matching the hardware.
func (t *Tag) SetImpedance(z ImpedanceState) error {
	if z < 1 || int(z) > t.cfg.Bank.States() {
		return fmt.Errorf("%w: %d", ErrBadImpedance, z)
	}
	if t.stuck {
		return nil
	}
	t.z = z
	return nil
}

// StepImpedance advances the impedance state cyclically — lines 18–22 of
// the paper's Algorithm 1: "if Z == Z_max { Z ← 1 } else { Z ← Z + 1 }".
// A stuck switch does not move.
func (t *Tag) StepImpedance() {
	if t.stuck {
		return
	}
	if int(t.z) >= t.cfg.Bank.States() {
		t.z = 1
		return
	}
	t.z++
}

// SetStuck freezes (or releases) the impedance switch in its current state —
// the fault layer's stuck-SPDT model.
func (t *Tag) SetStuck(stuck bool) { t.stuck = stuck }

// Stuck reports whether the impedance switch is stuck.
func (t *Tag) Stuck() bool { return t.stuck }

// ImpedanceStates returns the size of the tag's impedance bank (state
// indices run 1..ImpedanceStates, strongest last).
func (t *Tag) ImpedanceStates() int { return t.cfg.Bank.States() }

// DeltaGamma returns the tag's current backscatter coefficient |ΔΓ|.
func (t *Tag) DeltaGamma() (float64, error) {
	return t.cfg.Bank.DeltaGamma(t.z)
}

// EncodeFrame runs the §III-A transmit pipeline up to the chip level:
// framing (preamble, length, payload, CRC) followed by PN spreading, where
// each data bit of one emits the code's One chips and each zero bit the
// Zero chips.
func (t *Tag) EncodeFrame(payload []byte) ([]byte, error) {
	bits, err := frame.Marshal(payload, t.cfg.Frame)
	if err != nil {
		return nil, fmt.Errorf("tag %d: %w", t.id, err)
	}
	return SpreadBits(bits, t.cfg.Code), nil
}

// Waveform produces the tag's baseband OOK envelope for one frame at the
// receiver sampling rate: the chip stream of EncodeFrame upsampled by
// SamplesPerChip, as unit-amplitude samples. The channel layer scales it by
// the realized link gain (which includes |ΔΓ| via Eq. 1); the square-wave
// subcarrier itself needs no explicit samples at this abstraction because
// the receiver is tuned to the shifted frequency f_c − Δf, where the
// reflected first harmonic appears as this envelope (see squarewave.go for
// the harmonic analysis justifying the approximation).
func (t *Tag) Waveform(payload []byte) ([]complex128, error) {
	return t.WaveformInto(nil, payload)
}

// WaveformInto is Waveform writing into dst (grown as needed) so the
// simulation loop can reuse one sample buffer per tag slot across rounds;
// it returns the filled slice. The frame bits are marshalled into a stack
// buffer and spread straight into samples — no chip stream is built — so
// with a large enough dst the call does not allocate.
//
//cbma:hotpath
func (t *Tag) WaveformInto(dst []complex128, payload []byte) ([]complex128, error) {
	var buf [frame.MaxBits]byte
	bits, err := frame.AppendBits(buf[:0], payload, t.cfg.Frame)
	if err != nil {
		return nil, fmt.Errorf("tag %d: %w", t.id, err)
	}
	spc := t.cfg.SamplesPerChip
	code := t.cfg.Code
	chipsPerBit := code.Length()
	n := len(bits) * chipsPerBit * spc
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	base := 0
	for _, b := range bits {
		seq := code.Zero
		if b == 1 {
			seq = code.One
		}
		for _, c := range seq {
			v := complex(float64(c), 0)
			for k := 0; k < spc; k++ {
				dst[base+k] = v
			}
			base += spc
		}
	}
	return dst, nil
}

// FrameChips returns the number of chips in a frame carrying p payload
// bytes.
func (t *Tag) FrameChips(p int) (int, error) {
	bits, err := t.cfg.Frame.BitLength(p)
	if err != nil {
		return 0, err
	}
	return bits * t.cfg.Code.Length(), nil
}

// NoteFrameSent and NoteAck feed the MAC layer's ACK-ratio statistics
// (Algorithm 1 lines 5–13).
func (t *Tag) NoteFrameSent() { t.framesSent++ }

// NoteAck records a received acknowledgement for this tag.
func (t *Tag) NoteAck() { t.acksHeard++ }

// AckRatio returns acksHeard/framesSent for the current measurement window,
// or zero before any frame was sent.
func (t *Tag) AckRatio() float64 {
	if t.framesSent == 0 {
		return 0
	}
	return float64(t.acksHeard) / float64(t.framesSent)
}

// AckWindow exposes the raw counters of the current measurement window —
// the controller's feedback-blackout detection needs the absolute counts,
// not just the ratio (zero ACKs over 100 frames and zero frames sent are
// very different situations).
func (t *Tag) AckWindow() (sent, acked int) { return t.framesSent, t.acksHeard }

// ResetAckWindow clears the ACK statistics for the next measurement round.
func (t *Tag) ResetAckWindow() { t.framesSent, t.acksHeard = 0, 0 }

// SpreadBits expands frame bits into the on-air chip stream using code:
// bit 1 → code.One, bit 0 → code.Zero. It is a thin alias over
// pn.Code.Spread kept for readability at the tag's call sites.
func SpreadBits(bits []byte, code pn.Code) []byte {
	return code.Spread(bits)
}

package rx

import (
	"fmt"
	"math"

	"cbma/internal/frame"
)

// decodeUser recovers one user's frame starting at lag: §III-B decoding,
// done coherently. Each bit correlates the complex baseband window of one
// bit period with the user's discriminant template and projects the result
// onto the channel phase estimated from the preamble (phasor) — equivalent
// to comparing the correlation against the PN sequence representing '1'
// with that representing '0', but with multi-access interference combining
// linearly so phase diversity averages it down. The header (preamble +
// length byte) is decoded first so the total frame extent is known, then
// payload and CRC follow and frame.Unmarshal validates the result.
func (r *Receiver) decodeUser(x []complex128, id, lag int, phasor complex128) DecodedFrame {
	out := DecodedFrame{TagID: id, Lag: lag}
	tmpl := r.bitTmpl[id]
	bitLen := len(tmpl)
	pr, pi := real(phasor), imag(phasor)

	pre := r.preamble
	headerBits := len(pre) + 8

	// Decision-directed phase tracking (Config.PhaseTracking): after each
	// decision the phasor estimate is steered toward the observed
	// correlation (negated for a zero bit), with a first-order loop gain
	// small enough to average over multi-access interference yet fast
	// enough to follow tens-of-ppm oscillator offsets across a frame.
	const trackGain = 0.15
	track := func(dot complex128, bit byte) {
		if !r.cfg.PhaseTracking {
			return
		}
		if bit == 0 {
			dot = -dot
		}
		mag := math.Hypot(real(dot), imag(dot))
		if mag == 0 {
			return
		}
		nr := (1-trackGain)*pr + trackGain*real(dot)/mag
		ni := (1-trackGain)*pi + trackGain*imag(dot)/mag
		norm := math.Hypot(nr, ni)
		if norm == 0 {
			return
		}
		pr, pi = nr/norm, ni/norm
	}

	// Decisions accumulate in stack storage: a frame never exceeds
	// frame.MaxBits.
	var buf [frame.MaxBits]byte
	bits := buf[:0]
	readBit := func(k int) (byte, error) {
		startIdx := lag + k*bitLen
		endIdx := startIdx + bitLen
		if startIdx < 0 || endIdx > len(x) {
			return 0, fmt.Errorf("%w: bit %d needs samples [%d,%d)", ErrShortRead, k, startIdx, endIdx)
		}
		dot := complexRealDot(x[startIdx:endIdx], tmpl)
		// Project onto the channel phase: Re(conj(phasor)·dot).
		var bit byte
		if real(dot)*pr+imag(dot)*pi > 0 {
			bit = 1
		}
		track(dot, bit)
		return bit, nil
	}

	for k := 0; k < headerBits; k++ {
		b, err := readBit(k)
		if err != nil {
			out.Err = err
			return out
		}
		bits = append(bits, b)
	}
	// Resolve the self-impostor inversion (see detectUser): a detection one
	// chip off on a PPM-style code decodes the exact bit-inverse of the true
	// frame. If the header preamble is the exact inverse of the expected
	// pattern, flip every decision; any other misalignment still fails the
	// preamble or CRC check below.
	invert := byte(0)
	inverted := true
	for i, want := range pre {
		if bits[i] != 1-want {
			inverted = false
			break
		}
	}
	if inverted {
		invert = 1
		for i := range bits {
			bits[i] ^= 1
		}
	}
	// Parse the length byte (bits headerBits-8 .. headerBits).
	var length int
	for _, b := range bits[len(pre):] {
		length = length<<1 | int(b)
	}
	if length > frame.MaxPayload {
		out.Err = fmt.Errorf("%w: decoded length %d", frame.ErrLength, length)
		return out
	}
	total := headerBits + 8*length + 16
	for k := headerBits; k < total; k++ {
		b, err := readBit(k)
		if err != nil {
			out.Err = err
			return out
		}
		bits = append(bits, b^invert)
	}
	f, err := frame.Unmarshal(bits, r.cfg.Frame)
	if err != nil {
		out.Err = err
		return out
	}
	out.OK = true
	out.Payload = f.Payload
	return out
}

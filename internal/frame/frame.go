// Package frame implements CBMA's link-layer framing (§III-A of the paper):
// a known alternating preamble (one byte, 0xAA, extensible from 4 to 64 bits
// for the preamble-length study of Fig. 8(c)), a one-byte length field, up
// to 126 bytes of payload, and a two-byte CRC.
package frame

import (
	"errors"
	"fmt"
)

// MaxPayload is the largest payload the one-byte length field carries
// alongside the CRC (§III-A: "up to 126 bytes of payload data").
const MaxPayload = 126

// DefaultPreambleBits is the paper's one-byte preamble {10101010}.
const DefaultPreambleBits = 8

// MaxBits is the longest marshalled frame in bits: the 64-bit maximum
// preamble, the length byte, MaxPayload payload bytes and the CRC. A
// [MaxBits]byte array holds any frame's bit stream, which lets hot loops
// marshal into stack storage (AppendBits) instead of the heap.
const MaxBits = 64 + 8 + 8*MaxPayload + 16

// Errors returned by the framer.
var (
	ErrPayloadTooLarge = errors.New("frame: payload exceeds 126 bytes")
	ErrBadPreambleLen  = errors.New("frame: preamble length must be 4..64 bits")
	ErrTooShort        = errors.New("frame: bit stream shorter than header")
	ErrPreamble        = errors.New("frame: preamble mismatch")
	ErrCRC             = errors.New("frame: CRC mismatch")
	ErrLength          = errors.New("frame: length field exceeds available bits")
)

// Frame is a decoded CBMA frame.
type Frame struct {
	// Payload is the application data (≤ MaxPayload bytes).
	Payload []byte
}

// Config controls marshalling. The zero value selects the paper's defaults
// via the accessor methods.
type Config struct {
	// PreambleBits is the preamble length in bits (4–64, default 8). The
	// preamble is the alternating pattern 1010… as in the paper.
	PreambleBits int
}

// preambleBits returns the validated preamble length.
func (c Config) preambleBits() (int, error) {
	n := c.PreambleBits
	if n == 0 {
		n = DefaultPreambleBits
	}
	if n < 4 || n > 64 {
		return 0, fmt.Errorf("%w: %d", ErrBadPreambleLen, n)
	}
	return n, nil
}

// Preamble returns the alternating preamble bit pattern (1,0,1,0,…) of the
// configured length, one bit per byte.
func (c Config) Preamble() ([]byte, error) {
	n, err := c.preambleBits()
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = preambleBit(i)
	}
	return out, nil
}

// preambleBit is bit i of the alternating preamble 1,0,1,0,….
func preambleBit(i int) byte { return byte((i + 1) % 2) }

// BitLength returns the total marshalled frame size in bits for a payload of
// p bytes: preamble + 8-bit length + payload + 16-bit CRC.
func (c Config) BitLength(p int) (int, error) {
	n, err := c.preambleBits()
	if err != nil {
		return 0, err
	}
	if p < 0 || p > MaxPayload {
		return 0, ErrPayloadTooLarge
	}
	return n + 8 + 8*p + 16, nil
}

// Marshal encapsulates payload into the on-air bit stream: preamble bits,
// length byte (payload size in bytes), payload bytes MSB-first, and the
// CRC-16/CCITT-FALSE of length+payload.
func Marshal(payload []byte, cfg Config) ([]byte, error) {
	n, _ := cfg.preambleBits() // AppendBits reports an invalid preamble
	bits, err := AppendBits(make([]byte, 0, n+8+8*len(payload)+16), payload, cfg)
	if err != nil {
		return nil, err
	}
	return bits, nil
}

// AppendBits appends payload's marshalled bit stream (see Marshal) to dst
// and returns the extended slice. It allocates only when dst lacks the
// capacity, so callers that own a [MaxBits]byte buffer marshal for free.
func AppendBits(dst, payload []byte, cfg Config) ([]byte, error) {
	if len(payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, len(payload))
	}
	n, err := cfg.preambleBits()
	if err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		dst = append(dst, preambleBit(i))
	}
	length := byte(len(payload))
	crc := checksumUpdate(0xFFFF, length)
	dst = appendByteBits(dst, length)
	for _, b := range payload {
		crc = checksumUpdate(crc, b)
		dst = appendByteBits(dst, b)
	}
	return appendByteBits(dst, byte(crc>>8), byte(crc)), nil
}

// Unmarshal parses a bit stream produced by Marshal (or recovered by the
// receiver's decoder). It verifies the preamble, bounds-checks the length
// field, and checks the CRC. The returned frame's payload is a copy.
func Unmarshal(bits []byte, cfg Config) (Frame, error) {
	n, err := cfg.preambleBits()
	if err != nil {
		return Frame{}, err
	}
	if len(bits) < n+8+16 {
		return Frame{}, ErrTooShort
	}
	for i := 0; i < n; i++ {
		if want := preambleBit(i); bits[i] != want {
			return Frame{}, fmt.Errorf("%w at bit %d", ErrPreamble, i)
		}
	}
	rest := bits[n:]
	length := int(packByte(rest[:8]))
	if length > MaxPayload {
		return Frame{}, fmt.Errorf("%w: length byte %d", ErrLength, length)
	}
	need := 8 + 8*length + 16
	if len(rest) < need {
		return Frame{}, fmt.Errorf("%w: need %d bits, have %d", ErrLength, need, len(rest))
	}
	// The payload is the frame's only allocation: the CRC runs over the
	// length byte and the payload as they are unpacked.
	crc := checksumUpdate(0xFFFF, byte(length))
	payload := make([]byte, length)
	for i := range payload {
		payload[i] = packByte(rest[8*(i+1) : 8*(i+2)])
		crc = checksumUpdate(crc, payload[i])
	}
	end := 8 * (1 + length)
	wantCRC := uint16(packByte(rest[end:end+8]))<<8 | uint16(packByte(rest[end+8:end+16]))
	if crc != wantCRC {
		return Frame{}, fmt.Errorf("%w: got %#04x, want %#04x", ErrCRC, crc, wantCRC)
	}
	return Frame{Payload: payload}, nil
}

// appendByteBits appends each byte MSB-first as 8 bit values.
func appendByteBits(dst []byte, bs ...byte) []byte {
	for _, b := range bs {
		for i := 7; i >= 0; i-- {
			dst = append(dst, (b>>uint(i))&1)
		}
	}
	return dst
}

// packByte packs 8 bit values (MSB first) into a byte.
func packByte(bits []byte) byte {
	var b byte
	for _, v := range bits[:8] {
		b = b<<1 | (v & 1)
	}
	return b
}

// BytesToBits expands bytes into one-bit-per-byte form, MSB first.
func BytesToBits(bs []byte) []byte {
	return appendByteBits(make([]byte, 0, 8*len(bs)), bs...)
}

// BitsToBytes packs bits (MSB first) into bytes; the bit count must be a
// multiple of eight.
func BitsToBytes(bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("frame: bit count %d not a multiple of 8", len(bits))
	}
	out := make([]byte, len(bits)/8)
	for i := range out {
		out[i] = packByte(bits[8*i : 8*i+8])
	}
	return out, nil
}

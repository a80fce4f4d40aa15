package frame

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x00},
		{0xFF},
		[]byte("hello, backscatter"),
		bytes.Repeat([]byte{0xA5}, MaxPayload),
	}
	for _, p := range payloads {
		bits, err := Marshal(p, Config{})
		if err != nil {
			t.Fatalf("Marshal(%d bytes): %v", len(p), err)
		}
		f, err := Unmarshal(bits, Config{})
		if err != nil {
			t.Fatalf("Unmarshal(%d bytes): %v", len(p), err)
		}
		if !bytes.Equal(f.Payload, p) && !(len(p) == 0 && len(f.Payload) == 0) {
			t.Errorf("payload mismatch: got %x, want %x", f.Payload, p)
		}
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(MaxPayload + 1)
		p := make([]byte, n)
		r.Read(p)
		preBits := []int{4, 8, 16, 32, 64}[r.Intn(5)]
		cfg := Config{PreambleBits: preBits}
		bits, err := Marshal(p, cfg)
		if err != nil {
			return false
		}
		got, err := Unmarshal(bits, cfg)
		if err != nil {
			return false
		}
		return bytes.Equal(got.Payload, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMarshalRejectsOversizedPayload(t *testing.T) {
	if _, err := Marshal(make([]byte, MaxPayload+1), Config{}); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("got %v, want ErrPayloadTooLarge", err)
	}
}

func TestPreamblePattern(t *testing.T) {
	pre, err := Config{}.Preamble()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 0, 1, 0, 1, 0, 1, 0} // the paper's 0xAA
	if !bytes.Equal(pre, want) {
		t.Errorf("preamble = %v, want %v", pre, want)
	}
}

func TestPreambleLengthValidation(t *testing.T) {
	for _, n := range []int{-1, 1, 2, 3, 65, 100} {
		if _, err := (Config{PreambleBits: n}).Preamble(); !errors.Is(err, ErrBadPreambleLen) {
			t.Errorf("PreambleBits=%d: got %v, want ErrBadPreambleLen", n, err)
		}
	}
	for _, n := range []int{4, 8, 16, 32, 64} {
		pre, err := Config{PreambleBits: n}.Preamble()
		if err != nil {
			t.Errorf("PreambleBits=%d: %v", n, err)
		}
		if len(pre) != n {
			t.Errorf("PreambleBits=%d: got %d bits", n, len(pre))
		}
	}
}

func TestBitLength(t *testing.T) {
	got, err := Config{}.BitLength(10)
	if err != nil {
		t.Fatal(err)
	}
	want := 8 + 8 + 80 + 16
	if got != want {
		t.Errorf("BitLength(10) = %d, want %d", got, want)
	}
	if _, err := (Config{}).BitLength(127); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("got %v, want ErrPayloadTooLarge", err)
	}
	if _, err := (Config{}).BitLength(-1); err == nil {
		t.Error("negative payload must fail")
	}
}

func TestUnmarshalTooShort(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10), Config{}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("got %v, want ErrTooShort", err)
	}
}

func TestUnmarshalPreambleMismatch(t *testing.T) {
	bits, err := Marshal([]byte{1, 2, 3}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bits[0] ^= 1
	if _, err := Unmarshal(bits, Config{}); !errors.Is(err, ErrPreamble) {
		t.Fatalf("got %v, want ErrPreamble", err)
	}
}

func TestUnmarshalCRCDetectsBitFlips(t *testing.T) {
	payload := []byte("sensor-reading-42")
	bits, err := Marshal(payload, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Flip each payload/CRC bit in turn; every single-bit error must be
	// caught (CRC-16 detects all single-bit errors).
	for i := 8 + 8; i < len(bits); i++ {
		corrupted := append([]byte(nil), bits...)
		corrupted[i] ^= 1
		if _, err := Unmarshal(corrupted, Config{}); err == nil {
			t.Fatalf("bit flip at %d went undetected", i)
		}
	}
}

func TestUnmarshalLengthFieldBounds(t *testing.T) {
	bits, err := Marshal([]byte{1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the length byte (bits 8..15) with 127 (> MaxPayload).
	for i, v := range []byte{0, 1, 1, 1, 1, 1, 1, 1} {
		bits[8+i] = v
	}
	if _, err := Unmarshal(bits, Config{}); !errors.Is(err, ErrLength) {
		t.Fatalf("got %v, want ErrLength", err)
	}
	// A length claiming more bits than available must also fail cleanly.
	bits2, _ := Marshal([]byte{1}, Config{})
	for i, v := range []byte{0, 1, 1, 1, 1, 1, 1, 0} { // 126
		bits2[8+i] = v
	}
	if _, err := Unmarshal(bits2, Config{}); !errors.Is(err, ErrLength) {
		t.Fatalf("got %v, want ErrLength", err)
	}
}

func TestUnmarshalPayloadIsACopy(t *testing.T) {
	bits, err := Marshal([]byte{9, 9}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Unmarshal(bits, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.Payload[0] = 42
	g, err := Unmarshal(bits, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Payload[0] != 9 {
		t.Error("Unmarshal must return an independent copy")
	}
}

func TestBytesToBitsRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		bits := BytesToBits(data)
		if len(bits) != 8*len(data) {
			return false
		}
		back, err := BitsToBytes(bits)
		if err != nil {
			return false
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsToBytesRejectsRagged(t *testing.T) {
	if _, err := BitsToBytes(make([]byte, 7)); err == nil {
		t.Fatal("want error for non-multiple-of-8 bit count")
	}
}

func TestBytesToBitsMSBFirst(t *testing.T) {
	bits := BytesToBits([]byte{0x80})
	if bits[0] != 1 {
		t.Error("MSB must come first")
	}
	for _, b := range bits[1:] {
		if b != 0 {
			t.Error("low bits of 0x80 must be 0")
		}
	}
}

// TestAppendBitsMatchesMarshal pins AppendBits to Marshal, appending after
// existing content, and checks MaxBits holds the longest frame: a
// [MaxBits]byte buffer must take a maximal frame without allocating.
func TestAppendBitsMatchesMarshal(t *testing.T) {
	for _, cfg := range []Config{{}, {PreambleBits: 64}} {
		for _, n := range []int{0, 5, MaxPayload} {
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(7*i + 3)
			}
			want, err := Marshal(payload, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendBits([]byte{9, 9}, payload, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:2], []byte{9, 9}) || !bytes.Equal(got[2:], want) {
				t.Fatalf("preamble %d, payload %d: AppendBits does not extend dst with Marshal's bits", cfg.PreambleBits, n)
			}
		}
	}
	payload := make([]byte, MaxPayload)
	var buf [MaxBits]byte
	allocs := testing.AllocsPerRun(10, func() {
		bits, err := AppendBits(buf[:0], payload, Config{PreambleBits: 64})
		if err != nil || len(bits) != MaxBits {
			t.Fatalf("maximal frame: %d bits, err %v; want %d", len(bits), err, MaxBits)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendBits into a [MaxBits]byte buffer allocated %v times", allocs)
	}
	if _, err := AppendBits(nil, make([]byte, MaxPayload+1), Config{}); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("oversized payload: got %v, want ErrPayloadTooLarge", err)
	}
}

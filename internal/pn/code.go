package pn

import "fmt"

// Family enumerates the spreading-code families the simulator supports.
type Family int

// Supported code families. The paper evaluates Gold and 2NC codes
// (Fig. 9(b)); Walsh and Kasami are included as synchronous-CDMA and
// large-family comparison points.
const (
	FamilyGold Family = iota + 1
	Family2NC
	FamilyWalsh
	FamilyKasami
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyGold:
		return "gold"
	case Family2NC:
		return "2nc"
	case FamilyWalsh:
		return "walsh"
	case FamilyKasami:
		return "kasami"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// ParseFamily converts a string (as accepted by the CLI tools) to a Family.
func ParseFamily(s string) (Family, error) {
	switch s {
	case "gold":
		return FamilyGold, nil
	case "2nc":
		return Family2NC, nil
	case "walsh":
		return FamilyWalsh, nil
	case "kasami":
		return FamilyKasami, nil
	default:
		return 0, fmt.Errorf("pn: unknown code family %q", s)
	}
}

// Code is one user's spreading code: the unipolar chip sequences that
// represent a data bit of one and of zero. In CBMA the tag reflects (chip 1)
// or absorbs (chip 0), so both sequences are over {0, 1}. Per the paper's
// modified 2NC construction — and symmetric OOK signalling in general — the
// zero sequence is the chip-wise negation of the one sequence restricted to
// the code's support.
type Code struct {
	// ID is the index of the code within its Set (== tag index).
	ID int
	// One holds the chips transmitted for a data bit of 1.
	One []byte
	// Zero holds the chips transmitted for a data bit of 0.
	Zero []byte
}

// Length returns the number of chips per data bit.
func (c Code) Length() int { return len(c.One) }

// Discriminant returns the bipolar decision template One − Zero as floats:
// +1 where only One has a chip, −1 where only Zero has a chip, 0 where they
// agree. Correlating the received chip-rate envelope against this template
// and thresholding at zero is the paper's decoding rule ("if the correlation
// with the PN sequence representing '1' is higher than that with the PN
// sequence representing '0' …", §III-B).
func (c Code) Discriminant() []float64 {
	out := make([]float64, len(c.One))
	for i := range c.One {
		out[i] = float64(c.One[i]) - float64(c.Zero[i])
	}
	return out
}

// Spread expands frame bits into the on-air chip stream: bit 1 emits the
// One chips, bit 0 the Zero chips. Both the tag's encoder and the
// receiver's interference-cancellation reconstruction use this.
func (c Code) Spread(bits []byte) []byte {
	return c.AppendSpread(make([]byte, 0, len(bits)*c.Length()), bits)
}

// AppendSpread appends the chip stream of bits (see Spread) to dst and
// returns the extended slice; it allocates only when dst lacks capacity.
func (c Code) AppendSpread(dst, bits []byte) []byte {
	for _, b := range bits {
		if b == 1 {
			dst = append(dst, c.One...)
		} else {
			dst = append(dst, c.Zero...)
		}
	}
	return dst
}

// OnesWeight returns how many chips are active (1) in the bit-one sequence —
// the per-bit transmit energy in chip units.
func (c Code) OnesWeight() int {
	var w int
	for _, b := range c.One {
		w += int(b)
	}
	return w
}

// Validate checks structural invariants: equal lengths, binary chips, and a
// non-empty discriminant (the code must be decodable).
func (c Code) Validate() error {
	if len(c.One) == 0 {
		return fmt.Errorf("pn: code %d is empty", c.ID)
	}
	if len(c.One) != len(c.Zero) {
		return fmt.Errorf("pn: code %d one/zero length mismatch (%d vs %d)",
			c.ID, len(c.One), len(c.Zero))
	}
	differ := false
	for i := range c.One {
		if c.One[i] > 1 || c.Zero[i] > 1 {
			return fmt.Errorf("pn: code %d has non-binary chip at %d", c.ID, i)
		}
		if c.One[i] != c.Zero[i] {
			differ = true
		}
	}
	if !differ {
		return fmt.Errorf("pn: code %d cannot distinguish 1 from 0", c.ID)
	}
	return nil
}

// Set is a family of codes handed out to tags.
type Set struct {
	Family Family
	Codes  []Code
}

// Size returns the number of codes in the set.
func (s *Set) Size() int { return len(s.Codes) }

// ChipLength returns the per-bit chip count, or 0 for an empty set.
func (s *Set) ChipLength() int {
	if len(s.Codes) == 0 {
		return 0
	}
	return s.Codes[0].Length()
}

// Code returns the code with the given index.
func (s *Set) Code(i int) (Code, error) {
	if i < 0 || i >= len(s.Codes) {
		return Code{}, fmt.Errorf("pn: code index %d out of range [0,%d)", i, len(s.Codes))
	}
	return s.Codes[i], nil
}

// Validate checks every code in the set plus cross-code invariants (equal
// lengths, unique one-sequences).
func (s *Set) Validate() error {
	if len(s.Codes) == 0 {
		return fmt.Errorf("pn: empty code set")
	}
	want := s.Codes[0].Length()
	seen := make(map[string]int, len(s.Codes))
	for i, c := range s.Codes {
		if err := c.Validate(); err != nil {
			return err
		}
		if c.Length() != want {
			return fmt.Errorf("pn: code %d length %d differs from %d", i, c.Length(), want)
		}
		key := string(c.One)
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("pn: codes %d and %d are identical", prev, i)
		}
		seen[key] = i
	}
	return nil
}

// NewSet constructs a code set of the requested family sized for n users.
// goldDegree selects the m-sequence degree for Gold/Kasami families (0 picks
// a default of 5, i.e. 31-chip codes as in classic short Gold families).
func NewSet(f Family, n int, goldDegree uint) (*Set, error) {
	if n <= 0 {
		return nil, ErrBadUserNum
	}
	if goldDegree == 0 {
		goldDegree = 5
	}
	switch f {
	case FamilyGold:
		return NewGoldSet(goldDegree, n)
	case Family2NC:
		return New2NCSet(n)
	case FamilyWalsh:
		return NewWalshSet(n)
	case FamilyKasami:
		return NewKasamiSet(goldDegree, n)
	default:
		return nil, fmt.Errorf("pn: unknown code family %v", f)
	}
}

// ChipLength returns the code length NewSet(f, n, goldDegree) yields,
// without generating a sequence: 2^degree − 1 for Gold and Kasami (Kasami
// rounds an odd degree up), 2n for 2NC, and the smallest power of two above
// n for Walsh. It is cheap enough to bound frame lengths on every scenario
// validation; NewSet still decides whether the family holds n codes.
func ChipLength(f Family, n int, goldDegree uint) (int, error) {
	if n <= 0 {
		return 0, ErrBadUserNum
	}
	if goldDegree == 0 {
		goldDegree = 5
	}
	switch f {
	case FamilyGold:
		if _, _, err := PreferredPair(goldDegree); err != nil {
			return 0, err
		}
		return 1<<goldDegree - 1, nil
	case Family2NC:
		return 2 * n, nil
	case FamilyWalsh:
		size := 2
		for size <= n {
			size <<= 1
		}
		return size, nil
	case FamilyKasami:
		if goldDegree%2 != 0 {
			goldDegree++
		}
		if _, err := PrimitivePoly(goldDegree); err != nil {
			return 0, err
		}
		return 1<<goldDegree - 1, nil
	default:
		return 0, fmt.Errorf("pn: unknown code family %v", f)
	}
}

// negate returns the chip-wise complement of a unipolar sequence.
func negate(x []byte) []byte {
	out := make([]byte, len(x))
	for i, b := range x {
		out[i] = 1 - b
	}
	return out
}

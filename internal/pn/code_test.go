package pn

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestFamilyString(t *testing.T) {
	tests := []struct {
		f    Family
		want string
	}{
		{FamilyGold, "gold"},
		{Family2NC, "2nc"},
		{FamilyWalsh, "walsh"},
		{FamilyKasami, "kasami"},
		{Family(99), "family(99)"},
	}
	for _, tc := range tests {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.f, got, tc.want)
		}
	}
}

func TestParseFamilyRoundTrip(t *testing.T) {
	for _, f := range []Family{FamilyGold, Family2NC, FamilyWalsh, FamilyKasami} {
		got, err := ParseFamily(f.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != f {
			t.Errorf("ParseFamily(%q) = %v", f.String(), got)
		}
	}
	if _, err := ParseFamily("nope"); err == nil {
		t.Fatal("want error for unknown family")
	}
}

func TestCodeDiscriminant(t *testing.T) {
	c := Code{One: []byte{1, 0, 1}, Zero: []byte{0, 1, 1}}
	d := c.Discriminant()
	want := []float64{1, -1, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("chip %d = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestCodeOnesWeight(t *testing.T) {
	c := Code{One: []byte{1, 0, 1, 1}}
	if got := c.OnesWeight(); got != 3 {
		t.Errorf("OnesWeight = %d, want 3", got)
	}
}

func TestCodeValidate(t *testing.T) {
	tests := []struct {
		name string
		c    Code
		ok   bool
	}{
		{"valid", Code{One: []byte{1, 0}, Zero: []byte{0, 1}}, true},
		{"empty", Code{}, false},
		{"length mismatch", Code{One: []byte{1}, Zero: []byte{0, 1}}, false},
		{"non-binary", Code{One: []byte{2, 0}, Zero: []byte{0, 1}}, false},
		{"indistinguishable", Code{One: []byte{1, 0}, Zero: []byte{1, 0}}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestSetValidateDuplicates(t *testing.T) {
	s := &Set{Codes: []Code{
		{ID: 0, One: []byte{1, 0}, Zero: []byte{0, 1}},
		{ID: 1, One: []byte{1, 0}, Zero: []byte{0, 1}},
	}}
	if err := s.Validate(); err == nil {
		t.Fatal("duplicate codes must fail validation")
	}
}

func TestSetValidateEmpty(t *testing.T) {
	if err := (&Set{}).Validate(); err == nil {
		t.Fatal("empty set must fail validation")
	}
}

func TestSetCodeIndexing(t *testing.T) {
	s, err := New2NCSet(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Code(-1); err == nil {
		t.Error("negative index must fail")
	}
	if _, err := s.Code(3); err == nil {
		t.Error("out-of-range index must fail")
	}
	c, err := s.Code(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != 2 {
		t.Errorf("ID = %d, want 2", c.ID)
	}
}

func TestNewSetDispatch(t *testing.T) {
	for _, f := range []Family{FamilyGold, Family2NC, FamilyWalsh, FamilyKasami} {
		s, err := NewSet(f, 4, 0)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if s.Family != f {
			t.Errorf("family = %v, want %v", s.Family, f)
		}
		if s.Size() != 4 {
			t.Errorf("%v: size %d, want 4", f, s.Size())
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%v: %v", f, err)
		}
	}
	if _, err := NewSet(Family(42), 4, 0); err == nil {
		t.Fatal("unknown family must fail")
	}
	if _, err := NewSet(FamilyGold, 0, 0); err != ErrBadUserNum {
		t.Fatalf("got %v, want ErrBadUserNum", err)
	}
}

func TestChipLengthEmptySet(t *testing.T) {
	if got := (&Set{}).ChipLength(); got != 0 {
		t.Errorf("ChipLength = %d, want 0", got)
	}
}

func TestDiscriminantZeroMeansAgreement(t *testing.T) {
	// Property: discriminant is 0 exactly where One and Zero agree.
	f := func(seed int64) bool {
		n := int(seed%8) + 2
		if n < 2 {
			n = 2
		}
		s, err := New2NCSet(n)
		if err != nil {
			return false
		}
		for _, c := range s.Codes {
			d := c.Discriminant()
			for i := range d {
				agree := c.One[i] == c.Zero[i]
				if agree != (d[i] == 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestChipLengthMatchesNewSet: ChipLength predicts the length of every set
// NewSet builds, and fails wherever NewSet fails for the degree.
func TestChipLengthMatchesNewSet(t *testing.T) {
	for _, f := range []Family{FamilyGold, Family2NC, FamilyWalsh, FamilyKasami} {
		for degree := uint(0); degree <= 9; degree++ {
			for n := 1; n <= 9; n++ {
				got, lerr := ChipLength(f, n, degree)
				set, serr := NewSet(f, n, degree)
				switch {
				case serr == nil && lerr != nil:
					t.Errorf("%v n=%d degree=%d: ChipLength failed (%v) where NewSet succeeds", f, n, degree, lerr)
				case serr == nil && got != set.ChipLength():
					t.Errorf("%v n=%d degree=%d: ChipLength %d, set has %d chips", f, n, degree, got, set.ChipLength())
				case lerr == nil && serr != nil && !errors.Is(serr, ErrFamilySize):
					t.Errorf("%v n=%d degree=%d: ChipLength %d where NewSet fails: %v", f, n, degree, got, serr)
				}
			}
		}
	}
	if _, err := ChipLength(FamilyGold, 0, 5); !errors.Is(err, ErrBadUserNum) {
		t.Errorf("zero tags: got %v, want ErrBadUserNum", err)
	}
}

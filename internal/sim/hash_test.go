package sim

import (
	"testing"

	"cbma/internal/channel"
	"cbma/internal/fault"
	"cbma/internal/obs"
	"cbma/internal/pn"
)

// Golden digests for the canonical scenario serialization. These pin the
// hash across refactors: any change to hashDoc's shape, field names, the
// normalization rules or the schema constant shows up here first, and a
// deliberate change must bump scenarioHashSchema (old cache entries and
// manifests then stop matching instead of colliding). The values are the
// cache keys of every store built on Scenario.Hash, so a silent drift
// would invalidate (or worse, alias) production caches.
func TestScenarioHashGolden(t *testing.T) {
	variant := DefaultScenario()
	variant.NumTags = 4
	variant.Family = pn.Family2NC
	variant.TagLineDistance = 2.5
	variant.PowerControl = true
	variant.RandomInitialImpedance = true

	faulted := DefaultScenario()
	faulted.Fault = &fault.Profile{AckLossProb: 0.2, PanicProb: 0.05, MaxRoundRetries: 2}

	cases := []struct {
		name string
		scn  Scenario
		want string
	}{
		{"default", DefaultScenario(), "a8ecc22eeadef9ef5eb1ad3efb724301b0094f7e3df444ff442c0de81fefc8a3"},
		{"variant", variant, "b76a8a86624593993f09c7e8de8e3c94dce331298ab9adce211a02dbd7e96e72"},
		{"faulted", faulted, "a65d006a77c153921a97f117b8fc9d48d3ab894f2ada87922221a7c9cd191613"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.scn.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("hash = %s, want %s (a deliberate serialization change must bump scenarioHashSchema and these goldens)", got, tc.want)
			}
		})
	}
}

// The hash must ignore the documented result-neutral knobs and the
// normalization-only differences: two scenarios that run identically must
// share a cache slot.
func TestScenarioHashNeutralFields(t *testing.T) {
	base := DefaultScenario()
	want, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	neutral := map[string]func(*Scenario){
		"workers":           func(s *Scenario) { s.Workers = 7 },
		"obs":               func(s *Scenario) { s.Obs = obs.New(obs.Config{}) },
		"defaulted payload": func(s *Scenario) { s.PayloadBytes = 0 }, // validate restores 16
		"defaulted rates":   func(s *Scenario) { s.ChipRateHz, s.SampleRateHz = 0, 0 },
	}
	for name, mod := range neutral {
		scn := base
		mod(&scn)
		got, err := scn.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: hash changed (%s != %s), want result-neutral", name, got, want)
		}
	}
}

// Every result-relevant change must move the digest — including changes
// that plain JSON of the Scenario would conflate, like two interferer
// types with identical fields (interface encoding drops the type name).
func TestScenarioHashSensitivity(t *testing.T) {
	base := DefaultScenario()
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	mods := map[string]func(*Scenario){
		"seed":     func(s *Scenario) { s.Seed = 2 },
		"tags":     func(s *Scenario) { s.NumTags = 3 },
		"family":   func(s *Scenario) { s.Family = pn.FamilyWalsh },
		"packets":  func(s *Scenario) { s.Packets = 101 },
		"distance": func(s *Scenario) { s.TagLineDistance = 2 },
		"sic":      func(s *Scenario) { s.SIC = true },
		"refsync":  func(s *Scenario) { s.ReferenceSync = true },
		"fault":    func(s *Scenario) { s.Fault = &fault.Profile{EnergyOutageProb: 0.1} },
		"wifi": func(s *Scenario) {
			s.Interferers = []channel.Interferer{&channel.WiFiInterferer{PowerDBm: -50}}
		},
		"bluetooth": func(s *Scenario) {
			s.Interferers = []channel.Interferer{&channel.BluetoothInterferer{PowerDBm: -50}}
		},
		"extra-delay": func(s *Scenario) { s.ExtraDelayChips = []float64{0, 1} },
		"multipath":   func(s *Scenario) { s.Multipath = &channel.Multipath{Taps: 3, TapSpacingSec: 50e-9, DecayDB: 6} },
	}
	seen := map[string]string{baseHash: "base"}
	for name, mod := range mods {
		scn := base
		mod(&scn)
		h, err := scn.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("%s: hash collides with %q", name, prev)
		}
		seen[h] = name
	}
}

// An unrunnable scenario must refuse to hash rather than produce a key a
// store could be polluted under.
func TestScenarioHashInvalid(t *testing.T) {
	scn := DefaultScenario()
	scn.NumTags = 0
	if _, err := scn.Hash(); err == nil {
		t.Fatal("Hash() of an invalid scenario succeeded, want error")
	}
}

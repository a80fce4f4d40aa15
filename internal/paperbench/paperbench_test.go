package paperbench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"strings"
	"testing"

	"cbma/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	// Every table/figure in DESIGN.md's per-experiment index must have a
	// registry entry.
	want := []string{
		"table1", "table2", "fig5", "fig8a", "fig8b", "fig8c",
		"fig9a", "fig9b", "fig9c", "userdetect", "fig10", "fig11",
		"fig12", "headline",
		"ablation-detector", "ablation-impedance", "ablation-codes", "ablation-select",
		"ext-cfo", "ext-ackloss",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("entry %d = %q, want %q", i, all[i].ID, id)
		}
		// Exactly one of a point list with its fold, or an own runner.
		flat := all[i].Points != nil && all[i].print != nil
		if all[i].Title == "" || flat == (all[i].run != nil) {
			t.Errorf("entry %q incomplete", all[i].ID)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("fig9b"); !ok {
		t.Error("fig9b not found")
	}
	if _, ok := Find("nope"); ok {
		t.Error("bogus ID found")
	}
}

// quickDigests pins the SHA-256 of every experiment's output at Quick()
// scale: a refactor of how figures are defined or run must leave each
// printed table byte-identical, under any worker budget. Regenerate a digest
// only for a change that is meant to move that figure's numbers.
var quickDigests = map[string]string{
	"table1":             "d875da7c8c0b77e79ff9f167dcec2112d630ba80361a0f46c9bfca99d4f88d2e",
	"table2":             "07ed6c22d49da15d411f8ebf6315c45cde852c2bab1ad1272da80e790f9d4968",
	"fig5":               "8e007bdebdb34c18f2c09f54e82524057bac0be88a6727455e5f3954b4c9c701",
	"fig8a":              "1d55ea16acfa24a57e5788196bc373994e9821232d439ba715d0031c10f18553",
	"fig8b":              "72d6c8447e3de0c541defc01e8193d733da77fc5aa23aa8fe484ca77b97fb3e3",
	"fig8c":              "683c5ffafdd9b234a99e3220e262ebad1f04dfb74b15329af8956bc8084c16f6",
	"fig9a":              "eaf0ff943fe07ca365eb56c9da6a4f681139d66fa33780fa94ec0d7de5631f3b",
	"fig9b":              "25c0745d792374ca4be558ff745a3b6cd2e8c443d20cca1a0ae5a22b48df793f",
	"fig9c":              "53be0ed2a696bc7fe94aa44c52dbd2ab860db420e770d365ed30b811ac97a582",
	"userdetect":         "dc0548196d864187d3f2265580a301e0a31306e869f57a84b39550d4a8809c77",
	"fig10":              "9b0d5c81ea1cf7db5bc3ef6a05fb758b83eb6217b8d07d0356b24ad6339ff9ed",
	"fig11":              "984bff67ba5b5fd8eb1cd8f20c67a600ef77087a7a6ed29f22b0c4f1ddb26c3c",
	"fig12":              "44029511d765227ecc50ff76d2399c0a834031b0d41f6b370cda205fa27b0814",
	"headline":           "1f9019acca8edf81e30f816e51c265b69a09f34e7db5daae51c013922ecfbf77",
	"ablation-detector":  "10564b282abff5d24dde8bcc9fa3c317d9d979945cbb2404993c726cf3140994",
	"ablation-impedance": "94e19a66cd2d80fb35c31293a62c05ed45723c13811ffe4c048e2118f6019bab",
	"ablation-codes":     "c194095a90c868ecccb31cf4b7ec120f8e1fb110ff0ce6ac8a3954d6d4f3c47e",
	"ablation-select":    "b0aa8392fb54f1bb098fda3b49f86b92f3210064d903ab90507c8bf531f7d448",
	"ext-cfo":            "65b9f06bb80a364cda0ea465ccb469c9823fd00ea68336f218f79127469f6dbc",
	"ext-ackloss":        "6489f19b206a725aca45b5200beabc85c874f5113b0a89687a83625d304e03c5",
}

// TestQuickRunAllExperiments runs the whole registry at smoke scale and
// compares each table with its pinned digest. The digests are checked on
// amd64 only: other architectures may fuse multiply-adds (Go permits FMA
// contraction), which legitimately changes low-order bits.
func TestQuickRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry smoke run is slow")
	}
	o := Quick()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, o); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if strings.TrimSpace(buf.String()) == "" {
				t.Errorf("%s produced no output", e.ID)
			}
			if runtime.GOARCH != "amd64" {
				return
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != quickDigests[e.ID] {
				t.Errorf("%s output digest %s, pinned %s; output:\n%s", e.ID, got, quickDigests[e.ID], buf.String())
			}
		})
	}
}

func TestOptionsDefaults(t *testing.T) {
	d := DefaultOptions()
	if d.Packets < 100 || d.Groups < 10 || d.Trials < 500 {
		t.Errorf("default options too small for fidelity: %+v", d)
	}
	q := Quick()
	if q.Packets >= d.Packets {
		t.Error("quick options must be smaller than defaults")
	}
}

// TestBadOptionsFail: a non-positive workload count used to print NaN rows
// (fig9c with no groups, "0/0 trials exact" for userdetect) with a nil
// error. Every experiment now refuses such options before running.
func TestBadOptionsFail(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Options)
	}{
		{"no packets", func(o *Options) { o.Packets = 0 }},
		{"no groups", func(o *Options) { o.Groups = 0 }},
		{"negative groups", func(o *Options) { o.Groups = -3 }},
		{"no trials", func(o *Options) { o.Trials = 0 }},
		{"no payload", func(o *Options) { o.PayloadBytes = 0 }},
	}
	for _, tc := range cases {
		o := Quick()
		tc.mod(&o)
		for _, id := range []string{"fig9c", "userdetect", "ablation-impedance", "fig5"} {
			e, _ := Find(id)
			var buf bytes.Buffer
			if err := e.Run(&buf, o); !errors.Is(err, ErrBadOptions) {
				t.Errorf("%s, %s: got %v, want ErrBadOptions", tc.name, id, err)
			}
			if buf.Len() != 0 {
				t.Errorf("%s, %s: printed %q before failing", tc.name, id, buf.String())
			}
		}
	}
}

// TestPowerControlPointsPaired: both arms of a group share placement and
// seed, and differ only in the power-control switch.
func TestPowerControlPointsPaired(t *testing.T) {
	o := Quick()
	pts, err := powerControlPoints(o.base(), []int{2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*2*3 {
		t.Fatalf("%d points, want 12", len(pts))
	}
	for k := 0; k < len(pts); k += 2 {
		off, on := pts[k], pts[k+1]
		if off.PowerControl || !on.PowerControl {
			t.Errorf("group %d: arms out of order", k/2)
		}
		if off.Seed != on.Seed || off.Deployment.Tags[0] != on.Deployment.Tags[0] {
			t.Errorf("group %d: arms not paired", k/2)
		}
	}
}

func deploymentScenario() sim.Scenario {
	scn := sim.DefaultScenario()
	scn.PayloadBytes = 8
	scn.NumTags = 3
	scn.Packets = 16
	return scn
}

func TestDeploymentStudyShapes(t *testing.T) {
	groups := 4
	if testing.Short() {
		groups = 2
	}
	none, pc, pcns, err := deploymentStudy(deploymentScenario(), groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != groups || len(pc) != groups || len(pcns) != groups {
		t.Fatalf("sample counts %d/%d/%d", len(none), len(pc), len(pcns))
	}
	for i := range none {
		for _, v := range []float64{none[i], pc[i], pcns[i]} {
			if v < 0 || v > 1 {
				t.Errorf("group %d FER %v out of range", i, v)
			}
		}
	}
}

func TestDeploymentStudyValidation(t *testing.T) {
	e, _ := Find("fig10")
	o := Quick()
	o.Groups = 0
	if err := e.Run(&bytes.Buffer{}, o); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("got %v, want ErrBadOptions", err)
	}
}

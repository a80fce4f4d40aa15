package cbma_test

import (
	"strings"
	"testing"

	"cbma"
)

// These tests exercise the public facade the way a downstream user would —
// everything here goes through the cbma package only.

func fastScenario() cbma.Scenario {
	scn := cbma.DefaultScenario()
	scn.PayloadBytes = 8
	scn.Packets = 20
	return scn
}

func TestQuickstartFlow(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 4
	engine, err := cbma.NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	m, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.FramesSent != 4*scn.Packets {
		t.Errorf("sent %d", m.FramesSent)
	}
	if m.FER > 0.2 {
		t.Errorf("FER %v", m.FER)
	}
}

func TestSystemFlow(t *testing.T) {
	sys, err := cbma.NewSystem(cbma.SystemConfig{Scenario: fastScenario()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Final.FramesSent == 0 {
		t.Error("system run sent nothing")
	}
}

func TestCodeSetConstruction(t *testing.T) {
	for _, fam := range []cbma.CodeFamily{cbma.FamilyGold, cbma.Family2NC, cbma.FamilyWalsh, cbma.FamilyKasami} {
		set, err := cbma.NewCodeSet(fam, 5, 0)
		if err != nil {
			t.Fatalf("%v: %v", fam, err)
		}
		if set.Size() != 5 {
			t.Errorf("%v: size %d", fam, set.Size())
		}
	}
}

func TestFriisFieldPublic(t *testing.T) {
	field, err := cbma.FriisField(cbma.DefaultChannel(), cbma.NewDeployment(0.5), 1, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(field) != 6 || len(field[0]) != 10 {
		t.Fatalf("grid %dx%d", len(field), len(field[0]))
	}
}

func TestBaselinesPublic(t *testing.T) {
	scn := fastScenario()
	scn.Packets = 5
	td, err := cbma.TDMA(scn, cbma.TDMAConfig{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if td.Scheme != "tdma" {
		t.Errorf("scheme %q", td.Scheme)
	}
	fs, err := cbma.FSA(8, cbma.FSAConfig{FrameSlots: 8, Frames: 20})
	if err != nil {
		t.Fatal(err)
	}
	if fs.FramesSent != 160 {
		t.Errorf("fsa sent %d", fs.FramesSent)
	}
	fd, err := cbma.FDMA(8, cbma.FDMAConfig{Channels: 4, Frames: 10})
	if err != nil {
		t.Fatal(err)
	}
	if fd.Scheme != "fdma" {
		t.Errorf("scheme %q", fd.Scheme)
	}
	if len(cbma.Table1()) == 0 {
		t.Error("empty Table 1")
	}
	row := cbma.CBMARow(8e6, 10, 5)
	if row.Tags != 10 {
		t.Errorf("row %+v", row)
	}
}

func TestExperimentFacades(t *testing.T) {
	opts := cbma.ExperimentOptions{Seed: 1, Packets: 10, Groups: 2, Trials: 10, PayloadBytes: 8}
	ran := 0
	for _, e := range cbma.Experiments() {
		switch e.ID {
		case "fig12", "userdetect", "fig10":
		default:
			continue
		}
		var out strings.Builder
		if err := e.Run(&out, opts); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s printed nothing", e.ID)
		}
		ran++
	}
	if ran != 3 {
		t.Errorf("ran %d of fig12, userdetect and fig10", ran)
	}

	scn := fastScenario()
	scn.Packets = 10
	rates := []float64{0, 0.5}
	pts := cbma.FaultSweepPoints(scn, rates, func(p *cbma.FaultProfile, r float64) { p.AckLossProb = r })
	ms, err := cbma.RunCampaign(pts, cbma.CampaignOpts{What: "ack loss"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(rates) || pts[0].Seed != pts[1].Seed {
		t.Errorf("fault sweep: %d points, seeds %d/%d", len(ms), pts[0].Seed, pts[1].Seed)
	}
}

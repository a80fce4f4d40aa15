package core

import (
	"errors"
	"reflect"
	"testing"

	"cbma/internal/geom"
	"cbma/internal/sim"
)

func testScenario() sim.Scenario {
	scn := sim.DefaultScenario()
	scn.PayloadBytes = 8
	scn.Packets = 20
	return scn
}

func TestNewValidation(t *testing.T) {
	cfg := Config{Scenario: testScenario(), SelectionRounds: -1}
	if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("got %v, want ErrBadConfig", err)
	}
	bad := testScenario()
	bad.NumTags = 0
	if _, err := New(Config{Scenario: bad}); err == nil {
		t.Fatal("invalid scenario must fail")
	}
}

func TestRunWithoutSelection(t *testing.T) {
	sys, err := New(Config{Scenario: testScenario()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Initial, rep.Final) {
		t.Error("without node selection, Initial and Final must match")
	}
	if rep.Replacements != 0 || rep.SelectionRounds != 0 {
		t.Errorf("unexpected selection activity: %+v", rep)
	}
	if len(rep.FinalPositions) != 2 {
		t.Errorf("positions %v", rep.FinalPositions)
	}
}

func TestRunWithSelectionMovesBadTags(t *testing.T) {
	scn := testScenario()
	scn.NumTags = 2
	// Put one tag in a hopeless corner so its ACK ratio stays bad.
	scn.Deployment = geom.NewDeployment(0.5)
	scn.Deployment.Tags = []geom.Point{{X: 0, Y: 0.5}, {X: -2.9, Y: 1.9}}
	scn.Packets = 30
	if testing.Short() {
		scn.Packets = 10
	}
	sys, err := New(Config{Scenario: scn, NodeSelection: true, CandidatePositions: 40})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replacements == 0 {
		t.Fatal("the corner tag should have been replaced")
	}
	if rep.Final.FER > rep.Initial.FER {
		t.Errorf("selection made things worse: initial %v, final %v",
			rep.Initial.FER, rep.Final.FER)
	}
	moved := rep.FinalPositions[1]
	if moved == (geom.Point{X: -2.9, Y: 1.9}) {
		t.Error("bad tag position unchanged")
	}
}

// TestNodeSelectionKeepsConfiguredPositions places tags explicitly with a
// zero room and enables node selection: New used to rebuild the deployment
// from scratch in that case, discarding the configured layout.
func TestNodeSelectionKeepsConfiguredPositions(t *testing.T) {
	positions := []geom.Point{{X: 1.1, Y: 0.4}, {X: 1.6, Y: -0.3}}
	scn := testScenario()
	scn.NumTags = len(positions)
	scn.Deployment = geom.Deployment{Tags: positions} // room left zero
	sys, err := New(Config{Scenario: scn, NodeSelection: true, CandidatePositions: 5})
	if err != nil {
		t.Fatal(err)
	}
	dep := sys.Engine().Scenario().Deployment
	if dep.Room.Width == 0 {
		t.Error("room must be defaulted")
	}
	for i, p := range positions {
		if dep.Tags[i] != p {
			t.Errorf("tag %d moved to %+v during setup, want %+v", i, dep.Tags[i], p)
		}
		if got := sys.Engine().Tags()[i].Position(); got != p {
			t.Errorf("tag %d object placed at %+v, want %+v", i, got, p)
		}
	}
}

func TestRunSelectionStopsWhenAllGood(t *testing.T) {
	scn := testScenario() // easy 1 m line placement: everyone is good
	sys, err := New(Config{Scenario: scn, NodeSelection: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replacements != 0 {
		t.Errorf("no tag should be replaced in the easy case: %+v", rep)
	}
}

func TestEngineAccessor(t *testing.T) {
	sys, err := New(Config{Scenario: testScenario()})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Engine() == nil {
		t.Fatal("engine accessor returned nil")
	}
	if len(sys.Engine().Tags()) != 2 {
		t.Errorf("tag count %d", len(sys.Engine().Tags()))
	}
}

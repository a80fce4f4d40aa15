package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"cbma/internal/fault"
)

// TestArenaReuseEquivalence runs the golden shape matrix as one campaign —
// forward and reversed, at 1, 2 and 4 workers — so pooled arenas pass from
// shape to shape (Gold-31 to Gold-127, SIC to plain, faulted to clean). Every
// point must equal a run of the same scenario on a fresh arena: stale
// scratch leaking from one shape into the next fails here.
func TestArenaReuseEquivalence(t *testing.T) {
	var points []Scenario
	for _, g := range goldenShapes() {
		points = append(points, g.scn)
	}
	want := make([]string, len(points))
	for i, scn := range points {
		// Two collections empty the pool (and its victim cache), so the
		// reference run starts on a freshly allocated arena.
		runtime.GC()
		runtime.GC()
		e, err := NewEngine(scn)
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = metricsDigest(t, m)
	}
	for _, reversed := range []bool{false, true} {
		order := make([]int, len(points))
		for i := range order {
			order[i] = i
		}
		if reversed {
			slices.Reverse(order)
		}
		campaign := make([]Scenario, len(points))
		for j, i := range order {
			campaign[j] = points[i]
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("reversed=%v/workers=%d", reversed, workers), func(t *testing.T) {
				got, err := RunCampaign(campaign, CampaignOpts{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for j, i := range order {
					if g := metricsDigest(t, got[j]); g != want[i] {
						t.Errorf("point %d (shape %s): Metrics digest %s, fresh-arena run %s",
							j, goldenShapes()[i].name, g, want[i])
					}
				}
			})
		}
	}
}

// TestFreshArenaEquivalence runs the golden shape matrix twice: once in
// sequence, so each shape borrows the arena the shape before it warmed, and
// once with the free list emptied before every shape, so each runs on a
// newly built arena. The free list outlives garbage collections, so this is
// the fresh-arena reference the campaign orders of TestArenaReuseEquivalence
// reduce to.
func TestFreshArenaEquivalence(t *testing.T) {
	shapes := goldenShapes()
	warm := make([]string, len(shapes))
	for i, g := range shapes {
		warm[i] = metricsDigest(t, runGoldenShape(t, g))
	}
	for i, g := range shapes {
		drainArenas()
		if got := metricsDigest(t, runGoldenShape(t, g)); got != warm[i] {
			t.Errorf("shape %s: fresh-arena digest %s, warm-arena %s", g.name, got, warm[i])
		}
	}
}

// drainArenas empties the arena free list, so the next borrow builds a new
// arena.
func drainArenas() {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	arenaPool.free = nil
}

// TestSteadyRoundAllocs pins the allocation profile of a steady-state round
// on a warm arena. The build and mix stages allocate nothing for any shape;
// a whole round of a fault-free shape, SIC included, allocates at most
// 3+NumTags times — the receiver's frame list, one payload copy per
// decoded frame and the delivered/acked index lists, all of which the
// result hands to the caller. The SIC loop's joint fit, residual and
// accepted set live in the arena's receiver scratch, so its allocations do
// not grow with the number of users it cancels. Allocation counts are
// deterministic, so this fails on any regression.
func TestSteadyRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, g := range goldenShapes() {
		if g.schedule != nil {
			continue
		}
		t.Run(g.name, func(t *testing.T) {
			e, err := NewEngine(g.scn)
			if err != nil {
				t.Fatal(err)
			}
			a := getArena()
			defer putArena(a)
			// Warm-up rounds grow every buffer and create every generator
			// the shape draws from.
			for p := uint64(0); p < 4; p++ {
				rs := a.streams(e.scn.Seed, 0, phaseSteady, p)
				if _, err := e.resilientRound(e.tags, &rs, a, e.recv); err != nil {
					t.Fatal(err)
				}
			}
			var fc fault.Counters
			stages := testing.AllocsPerRun(10, func() {
				rs := a.streams(e.scn.Seed, 0, phaseSteady, 1)
				tx, err := e.buildTransmissions(e.tags, &rs, a, nil, &fc)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := e.mixChannel(tx, &rs, a, nil, &fc); err != nil {
					t.Fatal(err)
				}
			})
			if stages != 0 {
				t.Errorf("build+mix allocate %v times per round, want 0", stages)
			}
			if e.inj != nil {
				return
			}
			round := testing.AllocsPerRun(10, func() {
				rs := a.streams(e.scn.Seed, 0, phaseSteady, 1)
				if _, err := e.resilientRound(e.tags, &rs, a, e.recv); err != nil {
					t.Fatal(err)
				}
			})
			if limit := float64(3 + e.scn.NumTags); round > limit {
				t.Errorf("a serial round allocates %v times, want at most %v", round, limit)
			}
			t.Logf("build+mix %v allocs, whole round %v allocs", stages, round)
		})
	}
}

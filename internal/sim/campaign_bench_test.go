package sim

import (
	"fmt"
	"testing"
)

// fig8aQuickPoints is the paperbench Quick fig8a-equivalent workload: the
// Fig. 8(a) distance × tag-count grid at the smoke-run packet budget. The
// benchmark runs the identical scenario list at different worker budgets;
// results are bit-identical (TestCampaignWorkerEquivalence), so the only
// thing the budget buys is wall-clock.
func fig8aQuickPoints() []Scenario {
	base := DefaultScenario()
	base.Packets = 30
	base.PayloadBytes = 8
	distances := []float64{0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
	tagCounts := []int{2, 3, 4}
	var points []Scenario
	for _, n := range tagCounts {
		for i, d := range distances {
			scn := base
			scn.NumTags = n
			scn.TagLineDistance = d
			scn.Deployment.Tags = nil
			scn.Seed = DeriveSeed(base.Seed, seedSweepDistance, uint64(i), uint64(n))
			points = append(points, scn)
		}
	}
	return points
}

// BenchmarkCampaignFig8a measures the fig8a-quick campaign at 1 and 4
// workers: the parallel-round acceptance target is ≥2× at 4 workers.
func BenchmarkCampaignFig8a(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			points := fig8aQuickPoints()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunCampaign(points, CampaignOpts{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// denseSICPoints is perfbench's dense-sic grid: Gold-127, 6/8/10 tags ×
// 0.5/1.5/2.5 m, SIC on, 8-byte payloads, 5 packets per point — the
// receiver-heavy workload, where the SIC loop dominates decode time.
func denseSICPoints() []Scenario {
	base := DefaultScenario()
	base.GoldDegree = 7
	base.PayloadBytes = 8
	base.Packets = 5
	base.SIC = true
	var points []Scenario
	for ti, n := range []int{6, 8, 10} {
		for di, d := range []float64{0.5, 1.5, 2.5} {
			scn := base
			scn.NumTags = n
			scn.TagLineDistance = d
			scn.Deployment.Tags = nil
			scn.Seed = DeriveSeed(base.Seed, seedDenseSIC, uint64(ti), uint64(di))
			points = append(points, scn)
		}
	}
	return points
}

// seedDenseSIC labels denseSICPoints' seeds, clear of the figure labels.
const seedDenseSIC uint64 = 0xde5c

// BenchmarkCampaignDenseSIC measures the dense-sic grid as one campaign at
// one worker, so its time is the SIC receiver's, not the scheduler's.
func BenchmarkCampaignDenseSIC(b *testing.B) {
	points := denseSICPoints()
	for i := 0; i < b.N; i++ {
		if _, err := RunCampaign(points, CampaignOpts{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundsSingleEngine isolates the per-engine round parallelism:
// one scenario, rounds fanned across Engine workers.
func BenchmarkRoundsSingleEngine(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			scn := DefaultScenario()
			scn.NumTags = 4
			scn.Packets = 100
			scn.PayloadBytes = 8
			scn.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := NewEngine(scn)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

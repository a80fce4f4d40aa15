package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"cbma/internal/channel"
	"cbma/internal/frame"
	"cbma/internal/geom"
	"cbma/internal/pn"
)

// The paper figures' seed labels, with the values internal/paperbench owns.
// The shape tests below measure points of those figures under the seeds the
// figures give them, and the golden matrix pins a Fig. 8(a) point.
const (
	seedSweepDistance uint64 = iota + 1
	seedSweepTxPower
	seedSweepPreamble
	seedSweepBitrate
	seedSweepCodes
	seedSweepPowerControl
	seedSweepPowerControlPlacement
	seedSweepAsync
	seedWorkingConditions
	seedPowerDiff
	seedPowerDiffPlacement
)

// runPoints runs pts as one campaign.
func runPoints(t *testing.T, pts []Scenario) []Metrics {
	t.Helper()
	ms, err := RunCampaign(pts, CampaignOpts{What: t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// runGrid runs a micro-benchmark figure's tagCounts × xs grid, each cell
// seeded as the figure seeds it, and returns the metrics as [tag count][x].
func runGrid(t *testing.T, base Scenario, label uint64, xs []float64, tagCounts []int, set func(*Scenario, float64)) [][]Metrics {
	t.Helper()
	var pts []Scenario
	for _, n := range tagCounts {
		for i, x := range xs {
			scn := base
			scn.NumTags = n
			scn.Deployment.Tags = nil
			scn.Seed = DeriveSeed(base.Seed, label, uint64(i), uint64(n))
			set(&scn, x)
			pts = append(pts, scn)
		}
	}
	ms := runPoints(t, pts)
	out := make([][]Metrics, len(tagCounts))
	for k := range out {
		out[k] = ms[k*len(xs) : (k+1)*len(xs)]
	}
	return out
}

// tableScenario places n tags at random on the macro benchmarks' table.
func tableScenario(t *testing.T, base Scenario, n int, rng *rand.Rand) Scenario {
	t.Helper()
	scn := base
	scn.NumTags = n
	scn.Deployment = geom.NewDeployment(0.5)
	scn.Deployment.Room = geom.Room{Width: 2.4, Height: 1.6}
	if err := scn.Deployment.PlaceTagsRandom(rng, n, geom.Wavelength(2e9)/2); err != nil {
		t.Fatal(err)
	}
	return scn
}

func TestSweepDistanceShape(t *testing.T) {
	scn := fastScenario()
	scn.Packets = packets(t, 60)
	grid := runGrid(t, scn, seedSweepDistance, []float64{1, 4}, []int{2, 4},
		func(s *Scenario, d float64) { s.TagLineDistance = d })
	for k, row := range grid {
		if row[1].FER < row[0].FER {
			t.Errorf("curve %d: FER at 4 m (%v) below 1 m (%v)", k, row[1].FER, row[0].FER)
		}
	}
}

func TestSweepTxPowerShape(t *testing.T) {
	scn := fastScenario()
	scn.Packets = packets(t, 60)
	scn.TagLineDistance = 3
	pts := runGrid(t, scn, seedSweepTxPower, []float64{-5, 20}, []int{2},
		func(s *Scenario, p float64) { s.Channel.TxPowerDBm = p })[0]
	if pts[0].FER <= pts[1].FER {
		t.Errorf("FER at -5 dBm (%v) must exceed 20 dBm (%v)", pts[0].FER, pts[1].FER)
	}
}

func TestSweepPreambleShape(t *testing.T) {
	// Note: unlike the paper's envelope receiver, this coherent receiver's
	// detection is limited by per-sample SNR (a scale-free normalized
	// correlation), not by integration length, so preamble length buys
	// little — EXPERIMENTS.md discusses the divergence from Fig. 8(c).
	// The sweep must still run and longer preambles must not make
	// detection meaningfully worse.
	scn := fastScenario()
	scn.Packets = packets(t, 60)
	scn.TagLineDistance = 3.5
	pts := runGrid(t, scn, seedSweepPreamble, []float64{4, 64}, []int{4},
		func(s *Scenario, bits float64) { s.Frame = frame.Config{PreambleBits: int(bits)} })[0]
	if pts[1].DetectionFER > pts[0].DetectionFER+0.1 {
		t.Errorf("64-bit preamble detection FER (%v) much worse than 4-bit (%v)",
			pts[1].DetectionFER, pts[0].DetectionFER)
	}
}

func TestSweepBitrateRuns(t *testing.T) {
	scn := fastScenario()
	scn.Packets = packets(t, 40)
	pts := runGrid(t, scn, seedSweepBitrate, []float64{1e6, 20e6}, []int{2},
		func(s *Scenario, r float64) { s.ChipRateHz = r })[0]
	// At 20 Mcps the receiver has 1 sample per chip — decidedly worse.
	if pts[1].FER <= pts[0].FER && pts[1].FER < 0.01 {
		t.Errorf("sampling-starved FER (%v) suspiciously low vs well-sampled (%v)",
			pts[1].FER, pts[0].FER)
	}
}

func TestSweepCodesOrdering(t *testing.T) {
	scn := fastScenario()
	scn.Packets = packets(t, 80)
	scn.NumTags = 5
	scn.Deployment.Tags = nil
	scn.Seed = DeriveSeed(scn.Seed, seedSweepCodes, 0)
	twoNC, gold := scn, scn
	twoNC.Family = pn.Family2NC
	gold.Family = pn.FamilyGold
	ms := runPoints(t, []Scenario{twoNC, gold})
	if ms[0].FER > ms[1].FER+0.02 {
		t.Errorf("2NC FER (%v) should not exceed Gold (%v) at 5 tags — Fig. 9(b)", ms[0].FER, ms[1].FER)
	}
}

func TestUserDetectionAccuracy(t *testing.T) {
	scn := fastScenario()
	trials := packets(t, 60)
	res, err := UserDetection(scn, 10, trials)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != trials {
		t.Fatalf("trials %d", res.Trials)
	}
	if res.Accuracy < 0.9 {
		t.Errorf("10-tag user detection accuracy %v, paper reports 99.9%%", res.Accuracy)
	}
}

func TestUserDetectionRejectsNoTrials(t *testing.T) {
	for _, trials := range []int{0, -3} {
		res, err := UserDetection(fastScenario(), 10, trials)
		if !errors.Is(err, ErrBadTrials) {
			t.Errorf("trials=%d: got %+v, %v; want ErrBadTrials", trials, res, err)
		}
	}
}

func TestSweepAsyncShape(t *testing.T) {
	base := fastScenario()
	base.Packets = packets(t, 80)
	var pts []Scenario
	for i, d := range []float64{0, 2.5} {
		scn := base
		scn.NumTags = 2
		scn.Family = pn.FamilyGold
		scn.Deployment.Tags = nil
		scn.ExtraDelayChips = []float64{0, d}
		scn.SearchChips = int(math.Ceil(d)) + 2
		scn.JitterChips = 0.1
		scn.Seed = DeriveSeed(base.Seed, seedSweepAsync, uint64(i))
		pts = append(pts, scn)
	}
	ms := runPoints(t, pts)
	if ms[1].FER < ms[0].FER {
		t.Errorf("delayed FER (%v) must not beat synchronized FER (%v) — Fig. 11", ms[1].FER, ms[0].FER)
	}
}

func TestWorkingConditionsOrdering(t *testing.T) {
	base := fastScenario()
	base.Packets = packets(t, 60)
	interfDBm := base.Channel.NoiseFloorDBm + 14
	conds := []func(*Scenario){
		func(*Scenario) {},
		func(s *Scenario) {
			s.Interferers = []channel.Interferer{&channel.WiFiInterferer{PowerDBm: interfDBm}}
		},
		func(s *Scenario) { s.OFDMExcitation = true },
	}
	var pts []Scenario
	// Seed indices follow Fig. 12's row order: clean, WiFi, Bluetooth, OFDM.
	for i, k := range []uint64{0, 1, 3} {
		scn := base
		scn.Deployment.Tags = nil
		scn.Seed = DeriveSeed(base.Seed, seedWorkingConditions, k)
		conds[i](&scn)
		pts = append(pts, scn)
	}
	ms := runPoints(t, pts)
	clean, wifi, ofdm := ms[0].PRR, ms[1].PRR, ms[2].PRR
	if ofdm >= clean {
		t.Errorf("OFDM excitation PRR (%v) must drop well below clean (%v) — Fig. 12", ofdm, clean)
	}
	if wifi > clean+0.05 {
		t.Errorf("WiFi-interference PRR (%v) cannot beat clean (%v)", wifi, clean)
	}
}

func TestPowerDifferenceTableShape(t *testing.T) {
	base := fastScenario()
	base.Packets = packets(t, 40)
	rng := rand.New(rand.NewSource(DeriveSeed(base.Seed, seedPowerDiffPlacement)))
	pts := make([]Scenario, 8)
	for p := range pts {
		pts[p] = tableScenario(t, base, 2, rng)
		pts[p].Seed = DeriveSeed(base.Seed, seedPowerDiff, uint64(p))
	}
	ms := runPoints(t, pts)
	// Aggregate check: small-difference pairs must have a lower mean error
	// rate than large-difference pairs (Table II's conclusion).
	var loSum, hiSum float64
	var loN, hiN int
	for p, scn := range pts {
		dep := scn.Deployment
		p1 := scn.Channel.BackscatterRxPower(dep.ES.Distance(dep.Tags[0]), dep.Tags[0].Distance(dep.RX), 1)
		p2 := scn.Channel.BackscatterRxPower(dep.ES.Distance(dep.Tags[1]), dep.Tags[1].Distance(dep.RX), 1)
		diff := math.Abs(p1-p2) / math.Max(p1, p2)
		if diff < 0.5 {
			loSum += ms[p].FER
			loN++
		} else {
			hiSum += ms[p].FER
			hiN++
		}
	}
	if loN > 0 && hiN > 0 && loSum/float64(loN) > hiSum/float64(hiN) {
		t.Errorf("balanced pairs (mean FER %v over %d) should beat imbalanced (%v over %d)",
			loSum/float64(loN), loN, hiSum/float64(hiN), hiN)
	}
}

func TestSweepPowerControlRuns(t *testing.T) {
	base := fastScenario()
	base.Packets = packets(t, 40)
	rng := rand.New(rand.NewSource(DeriveSeed(base.Seed, seedSweepPowerControlPlacement)))
	var pts []Scenario
	for g := 0; g < 3; g++ {
		scn := tableScenario(t, base, 3, rng)
		scn.Seed = DeriveSeed(base.Seed, seedSweepPowerControl, uint64(g), 3)
		scn.RandomInitialImpedance = true
		for _, pc := range []bool{false, true} {
			scn.PowerControl = pc
			pts = append(pts, scn)
		}
	}
	for i, m := range runPoints(t, pts) {
		if m.FER < 0 || m.FER > 1 {
			t.Errorf("point %d FER %v out of range", i, m.FER)
		}
	}
}

package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"cbma/internal/channel"
	"cbma/internal/dsp"
	"cbma/internal/frame"
	"cbma/internal/geom"
	"cbma/internal/pn"
	"cbma/internal/rx"
	"cbma/internal/tag"
)

// Point is one sweep sample: an X coordinate (distance, power, …) and the
// metrics measured there.
type Point struct {
	X       float64
	Label   string
	Metrics Metrics
}

// Series is a named curve, e.g. "3 tags" in Fig. 8(a).
type Series struct {
	Name   string
	Points []Point
}

// Sweep identity labels for DeriveSeed. Each harness derives its per-point
// seeds as DeriveSeed(base.Seed, label, point coordinates…), which replaces
// the additive base.Seed+i+n*1000 arithmetic: that collided across
// (point, tag-count) pairs within a sweep and across different sweeps run
// off the same base seed, silently correlating supposedly independent
// measurements.
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
	seedFaultSweep
)

// runScenario runs one scenario through the campaign entry, wrapping errors
// with the sweep context.
func runScenario(scn Scenario, what string) (Metrics, error) {
	ms, err := RunCampaign([]Scenario{scn}, CampaignOpts{What: what})
	if err != nil {
		return Metrics{}, err
	}
	return ms[0], nil
}

// sweepGrid runs the tagCounts × xs grid of a micro-benchmark sweep as one
// campaign: every grid cell becomes a scenario up front (seeded from the
// sweep label and cell coordinates), RunCampaign executes them across the
// worker budget, and the results are folded back into one Series per tag
// count.
func sweepGrid(base Scenario, label uint64, what string, xs []float64, tagCounts []int, mod func(*Scenario, float64)) ([]Series, error) {
	points := make([]Scenario, 0, len(tagCounts)*len(xs))
	for _, n := range tagCounts {
		for i, x := range xs {
			scn := base
			scn.NumTags = n
			scn.Deployment.Tags = nil
			scn.Seed = DeriveSeed(base.Seed, label, uint64(i), uint64(n))
			mod(&scn, x)
			points = append(points, scn)
		}
	}
	ms, err := RunCampaign(points, CampaignOpts{What: what})
	if err != nil {
		return nil, err
	}
	out := make([]Series, 0, len(tagCounts))
	k := 0
	for _, n := range tagCounts {
		s := Series{Name: fmt.Sprintf("%d tags", n)}
		for _, x := range xs {
			s.Points = append(s.Points, Point{X: x, Metrics: ms[k]})
			k++
		}
		out = append(out, s)
	}
	return out, nil
}

// SweepDistance reproduces Fig. 8(a): frame error rate versus tag-to-RX
// distance (meters) for each tag count, ES-to-tag spacing fixed at 50 cm.
func SweepDistance(base Scenario, distances []float64, tagCounts []int) ([]Series, error) {
	return sweepGrid(base, seedSweepDistance, "distance sweep", distances, tagCounts,
		func(s *Scenario, d float64) { s.TagLineDistance = d })
}

// SweepTxPower reproduces Fig. 8(b): frame error rate versus excitation
// transmit power (dBm) for each tag count.
func SweepTxPower(base Scenario, powersDBm []float64, tagCounts []int) ([]Series, error) {
	return sweepGrid(base, seedSweepTxPower, "tx power sweep", powersDBm, tagCounts,
		func(s *Scenario, p float64) { s.Channel.TxPowerDBm = p })
}

// SweepPreamble reproduces Fig. 8(c): frame error rate versus preamble
// length (bits) for each tag count.
func SweepPreamble(base Scenario, preambleBits []int, tagCounts []int) ([]Series, error) {
	xs := make([]float64, len(preambleBits))
	for i, b := range preambleBits {
		xs[i] = float64(b)
	}
	return sweepGrid(base, seedSweepPreamble, "preamble sweep", xs, tagCounts,
		func(s *Scenario, bits float64) { s.Frame = frame.Config{PreambleBits: int(bits)} })
}

// SweepBitrate reproduces Fig. 9(a): frame error rate versus the tag's
// on-air bit rate (the OOK symbol rate, bps). The receiver sample rate is
// fixed, so high rates starve the decoder of samples per chip — the paper's
// "too few sampling points" regime.
func SweepBitrate(base Scenario, ratesHz []float64, tagCounts []int) ([]Series, error) {
	return sweepGrid(base, seedSweepBitrate, "bitrate sweep", ratesHz, tagCounts,
		func(s *Scenario, r float64) { s.ChipRateHz = r })
}

// SweepCodes reproduces Fig. 9(b): error rate versus concurrent tag count
// for Gold versus 2NC codes. Both families run each point with the same
// derived seed — the comparison is paired, so the curves differ only in the
// code family.
func SweepCodes(base Scenario, tagCounts []int) ([]Series, error) {
	families := []pn.Family{pn.Family2NC, pn.FamilyGold}
	points := make([]Scenario, 0, len(families)*len(tagCounts))
	for _, fam := range families {
		for i, n := range tagCounts {
			scn := base
			scn.NumTags = n
			scn.Deployment.Tags = nil
			scn.Family = fam
			scn.Seed = DeriveSeed(base.Seed, seedSweepCodes, uint64(i))
			points = append(points, scn)
		}
	}
	ms, err := RunCampaign(points, CampaignOpts{What: "code family sweep"})
	if err != nil {
		return nil, err
	}
	out := make([]Series, 0, len(families))
	k := 0
	for _, fam := range families {
		s := Series{Name: fam.String()}
		for _, n := range tagCounts {
			s.Points = append(s.Points, Point{X: float64(n), Metrics: ms[k]})
			k++
		}
		out = append(out, s)
	}
	return out, nil
}

// randomPlacementScenario clones base with a fresh random tag placement
// (minimum separation λ/2) — the macro-benchmark setup of §VII-C. Tags are
// drawn from a table-sized region around the radios, matching the paper's
// Fig. 7 setup where "the excitation source, the tags and the receiver are
// placed on a table": a full-room draw would make most links noise-limited
// and mask the near-far effects under study.
func randomPlacementScenario(base Scenario, n int, rng *rand.Rand) (Scenario, error) {
	scn := base
	scn.NumTags = n
	scn.Deployment = geom.NewDeployment(0.5)
	scn.Deployment.Room = geom.Room{Width: 2.4, Height: 1.6}
	minSep := geom.Wavelength(scn.Channel.CarrierHz) / 2
	if scn.Channel.CarrierHz == 0 {
		minSep = geom.Wavelength(2e9) / 2
	}
	if err := scn.Deployment.PlaceTagsRandom(rng, n, minSep); err != nil {
		return scn, err
	}
	return scn, nil
}

// SweepPowerControl reproduces Fig. 9(c): mean error rate versus tag count
// with and without the Algorithm 1 power-control loop, averaged over
// `groups` random placements per point (paper: 50 groups). Placements are
// drawn deterministically up front; both arms of each group then run as one
// campaign, sharing seed and placement so the comparison is paired.
func SweepPowerControl(base Scenario, tagCounts []int, groups int) ([]Series, error) {
	withPC := Series{Name: "with power control"}
	withoutPC := Series{Name: "without power control"}
	rng := rand.New(rand.NewSource(DeriveSeed(base.Seed, seedSweepPowerControlPlacement)))
	for _, n := range tagCounts {
		// Two scenarios per group: arm off at 2g, arm on at 2g+1.
		points := make([]Scenario, 0, 2*groups)
		for g := 0; g < groups; g++ {
			scn, err := randomPlacementScenario(base, n, rng)
			if err != nil {
				return nil, err
			}
			scn.Seed = DeriveSeed(base.Seed, seedSweepPowerControl, uint64(g), uint64(n))
			// Both arms boot tags in arbitrary impedance states — the
			// regime Algorithm 1 is designed to repair (see Scenario doc).
			scn.RandomInitialImpedance = true
			scn.PowerControl = false
			points = append(points, scn)
			scn.PowerControl = true
			points = append(points, scn)
		}
		ms, err := RunCampaign(points, CampaignOpts{What: fmt.Sprintf("power control sweep, %d tags", n)})
		if err != nil {
			return nil, err
		}
		var sumNo, sumPC float64
		for g := 0; g < groups; g++ {
			sumNo += ms[2*g].FER
			sumPC += ms[2*g+1].FER
		}
		withPC.Points = append(withPC.Points, Point{
			X: float64(n), Metrics: Metrics{NumTags: n, FER: sumPC / float64(groups)}})
		withoutPC.Points = append(withoutPC.Points, Point{
			X: float64(n), Metrics: Metrics{NumTags: n, FER: sumNo / float64(groups)}})
	}
	return []Series{withPC, withoutPC}, nil
}

// UserDetectionResult summarizes the §VII-B2 user-detection experiment.
type UserDetectionResult struct {
	Trials   int
	Correct  int // trials where the detected set exactly matched the active set
	Accuracy float64
}

// UserDetection reproduces §VII-B2: a group of groupSize tags, a random
// subset active per trial; the receiver must report exactly the active
// subset. The paper measures 99.9% accuracy over 1000 trials with 10 tags.
func UserDetection(base Scenario, groupSize, trials int) (UserDetectionResult, error) {
	scn := base
	scn.NumTags = groupSize
	scn.Deployment.Tags = nil
	scn.Packets = 1
	// The detection experiment runs with the SIC stage (see rx.receiveSIC
	// for why the plain threshold detector cannot reach the paper's 99.9%
	// in this simulator's fading) and on a static bench channel — the
	// stationary table setup the paper measured on. Both choices are
	// documented in EXPERIMENTS.md.
	scn.SIC = true
	scn.StaticChannel = true
	e, err := NewEngine(scn)
	if err != nil {
		return UserDetectionResult{}, err
	}
	// The subset draws are auxiliary randomness, not a scenario seed — no
	// collision risk — so the historical constant stays.
	rng := rand.New(rand.NewSource(base.Seed + 4242))
	res := UserDetectionResult{Trials: trials}
	a := getArena()
	defer putArena(a)
	for t := 0; t < trials; t++ {
		// Random non-empty active subset.
		var active []int
		for i := 0; i < groupSize; i++ {
			if rng.Float64() < 0.5 {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			active = append(active, rng.Intn(groupSize))
		}
		sub := make([]*tag.Tag, 0, len(active))
		for _, id := range active {
			sub = append(sub, e.tags[id])
		}
		r, err := e.runRound(sub, a)
		if err != nil {
			return res, err
		}
		// The detected set is the receiver's actionable output: the
		// CRC-verified senders that would be ACKed. (The paper's 99.9%
		// statistic is a pre-decode correlation test; across receiver
		// architectures the verified-sender set is the comparable,
		// functional notion — see EXPERIMENTS.md.)
		detected := map[int]bool{}
		for _, f := range r.frames {
			if !f.OK || errors.Is(f.Err, rx.ErrGhost) {
				continue
			}
			detected[f.TagID] = true
		}
		ok := len(detected) == len(active)
		for _, id := range active {
			if !detected[id] {
				ok = false
			}
		}
		if ok {
			res.Correct++
		}
	}
	res.Accuracy = float64(res.Correct) / float64(res.Trials)
	return res, nil
}

// SweepAsync reproduces Fig. 11: two tags, tag 1 delayed by a growing number
// of chips relative to tag 0; error rate versus delay. Gold codes and a
// widened per-user search window are used so delayed frames remain
// discoverable, as in the paper's correlation-based detector.
func SweepAsync(base Scenario, delaysChips []float64) (Series, error) {
	s := Series{Name: "2 tags, tag-2 delayed"}
	points := make([]Scenario, 0, len(delaysChips))
	for i, d := range delaysChips {
		scn := base
		scn.NumTags = 2
		scn.Family = pn.FamilyGold
		scn.Deployment.Tags = nil
		scn.ExtraDelayChips = []float64{0, d}
		scn.SearchChips = int(math.Ceil(math.Abs(d))) + 2
		scn.JitterChips = 0.1
		scn.Seed = DeriveSeed(base.Seed, seedSweepAsync, uint64(i))
		points = append(points, scn)
	}
	ms, err := RunCampaign(points, CampaignOpts{What: "async sweep"})
	if err != nil {
		return s, err
	}
	for i, d := range delaysChips {
		s.Points = append(s.Points, Point{X: d, Metrics: ms[i]})
	}
	return s, nil
}

// Condition labels for WorkingConditions (Fig. 12).
const (
	CondClean     = "no interference"
	CondWiFi      = "wifi interference"
	CondBluetooth = "bluetooth interference"
	CondOFDM      = "ofdm excitation"
)

// WorkingConditions reproduces Fig. 12: correct packet reception rate under
// the four §VII-C3 conditions. Interference power sits a few dB above the
// backscatter signal, as coexisting radios would.
func WorkingConditions(base Scenario) ([]Point, error) {
	interfDBm := base.Channel.NoiseFloorDBm + 14
	cases := []struct {
		label string
		mod   func(*Scenario)
	}{
		{CondClean, func(*Scenario) {}},
		{CondWiFi, func(s *Scenario) {
			s.Interferers = []channel.Interferer{&channel.WiFiInterferer{PowerDBm: interfDBm}}
		}},
		{CondBluetooth, func(s *Scenario) {
			s.Interferers = []channel.Interferer{&channel.BluetoothInterferer{PowerDBm: interfDBm}}
		}},
		{CondOFDM, func(s *Scenario) { s.OFDMExcitation = true }},
	}
	points := make([]Scenario, 0, len(cases))
	for i, c := range cases {
		scn := base
		scn.Deployment.Tags = nil
		scn.Seed = DeriveSeed(base.Seed, seedWorkingConditions, uint64(i))
		c.mod(&scn)
		points = append(points, scn)
	}
	ms, err := RunCampaign(points, CampaignOpts{What: "working conditions"})
	if err != nil {
		return nil, err
	}
	out := make([]Point, 0, len(cases))
	for i, c := range cases {
		out = append(out, Point{X: float64(i), Label: c.label, Metrics: ms[i]})
	}
	return out, nil
}

// PowerDiffRow is one row of Table II: a two-tag collision case with the
// per-tag SNRs, their relative power difference and the measured error rate.
type PowerDiffRow struct {
	Case       string
	SNR1, SNR2 float64 // dB
	Difference float64 // |P1−P2| / max(P1,P2)
	ErrorRate  float64
}

// PowerDifferenceTable reproduces Table II: pairs of tags at random
// positions, reporting how the error rate tracks the received-power
// difference. The paper's observation — error rates an order of magnitude
// lower when the difference is under 10% — is the motivation for power
// control.
func PowerDifferenceTable(base Scenario, pairs int) ([]PowerDiffRow, error) {
	rng := rand.New(rand.NewSource(DeriveSeed(base.Seed, seedPowerDiffPlacement)))
	points := make([]Scenario, 0, pairs)
	for p := 0; p < pairs; p++ {
		// The paper's benchmark (Fig. 3) places the pair near the ES–RX
		// axis, keeping every link interference-limited; a full-room draw
		// would mix in noise-limited outliers that mask the
		// power-difference effect under study.
		scn := base
		scn.NumTags = 2
		scn.Deployment = geom.NewDeployment(0.5)
		scn.Deployment.Room = geom.Room{Width: 2.4, Height: 1.6}
		minSep := geom.Wavelength(2e9) / 2
		if err := scn.Deployment.PlaceTagsRandom(rng, 2, minSep); err != nil {
			return nil, err
		}
		scn.Seed = DeriveSeed(base.Seed, seedPowerDiff, uint64(p))
		points = append(points, scn)
	}
	ms, err := RunCampaign(points, CampaignOpts{What: "power difference table"})
	if err != nil {
		return nil, err
	}
	var out []PowerDiffRow
	for p := 0; p < pairs; p++ {
		scn := points[p]
		// Mean received powers via the link budget at full reflection.
		p1 := scn.Channel.BackscatterRxPower(
			scn.Deployment.ES.Distance(scn.Deployment.Tags[0]),
			scn.Deployment.Tags[0].Distance(scn.Deployment.RX), 1)
		p2 := scn.Channel.BackscatterRxPower(
			scn.Deployment.ES.Distance(scn.Deployment.Tags[1]),
			scn.Deployment.Tags[1].Distance(scn.Deployment.RX), 1)
		noise := scn.Channel.NoiseFloorW()
		maxP := math.Max(p1, p2)
		out = append(out, PowerDiffRow{
			Case:       fmt.Sprintf("%d", p+1),
			SNR1:       dsp.DB(p1 / noise),
			SNR2:       dsp.DB(p2 / noise),
			Difference: (maxP - math.Min(p1, p2)) / maxP,
			ErrorRate:  ms[p].FER,
		})
	}
	return out, nil
}

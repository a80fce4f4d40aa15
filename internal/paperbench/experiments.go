package paperbench

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"cbma/internal/baseline"
	"cbma/internal/channel"
	"cbma/internal/core"
	"cbma/internal/dsp"
	"cbma/internal/geom"
	"cbma/internal/mac"
	"cbma/internal/pn"
	"cbma/internal/report"
	"cbma/internal/sim"
)

// Labels for sim.DeriveSeed. Each figure derives its per-point seeds as
// DeriveSeed(base.Seed, label, point coordinates…); distinct labels keep the
// figures' seed streams independent off one base seed. The values are
// pinned: every reproduced table depends on them. internal/sim keeps 12 for
// its fault sweeps, internal/core and internal/baseline the 200s.
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

// Labels of the Fig. 10 deployment study (placement stream and per-group
// seeds) and of the node-selection ablation's groups.
const (
	seedDeploymentPlacement uint64 = 201
	seedDeploymentGroup     uint64 = 202
	seedAblationSelect      uint64 = 301
)

// tenTagPoints is the 10-tag 2NC collision that Table I's CBMA row and the
// headline measure.
func tenTagPoints(o Options) ([]sim.Scenario, error) {
	scn := o.base()
	scn.NumTags = 10
	scn.Family = pn.Family2NC
	return []sim.Scenario{scn}, nil
}

// printTable1 prints the existing-systems summary plus the locally measured
// CBMA row.
func printTable1(w io.Writer, _ []sim.Scenario, ms []sim.Metrics) error {
	rows := append(baseline.Table1(), baseline.CBMARow(ms[0].RawAggregateBps, 10, 5))
	fmt.Fprintf(w, "%-22s %12s %8s %10s\n", "technology", "data rate", "tags", "range(m)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %12s %8d %10.4g\n",
			r.Technology, baseline.FormatRate(r.DataRateBps), r.Tags, r.RangeMeters)
	}
	return nil
}

// printHeadline prints the 10-tag aggregate rate and the gain over TDMA.
// The TDMA comparator is a one-tag-at-a-time schedule on the same scenario,
// not a campaign point, so the fold runs it.
func printHeadline(w io.Writer, pts []sim.Scenario, ms []sim.Metrics) error {
	td, err := baseline.TDMA(pts[0], baseline.TDMAConfig{Rounds: pts[0].Packets})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, report.Headline(ms[0].GoodputBps, td.GoodputBps, ms[0].RawAggregateBps, 10))
	return err
}

// tablePlacement clones base with n tags at a fresh random placement
// (minimum separation λ/2) — the macro-benchmark setup of §VII-C. Tags are
// drawn from a table-sized region around the radios, matching the paper's
// Fig. 7 setup where "the excitation source, the tags and the receiver are
// placed on a table": a full-room draw would make most links noise-limited
// and mask the near-far effects under study.
func tablePlacement(base sim.Scenario, n int, rng *rand.Rand) (sim.Scenario, error) {
	scn := base
	scn.NumTags = n
	scn.Deployment = geom.NewDeployment(0.5)
	scn.Deployment.Room = geom.Room{Width: 2.4, Height: 1.6}
	minSep := geom.Wavelength(scn.Channel.CarrierHz) / 2
	err := scn.Deployment.PlaceTagsRandom(rng, n, minSep)
	return scn, err
}

// powerDiffPoints builds Table II: ten pairs of tags at random table
// positions. The paper's benchmark (Fig. 3) places the pair near the ES–RX
// axis, keeping every link interference-limited; a full-room draw would mix
// in noise-limited outliers that mask the power-difference effect.
func powerDiffPoints(o Options) ([]sim.Scenario, error) {
	base := o.base()
	rng := rand.New(rand.NewSource(sim.DeriveSeed(base.Seed, seedPowerDiffPlacement)))
	pts := make([]sim.Scenario, 10)
	for p := range pts {
		scn, err := tablePlacement(base, 2, rng)
		if err != nil {
			return nil, err
		}
		scn.Seed = sim.DeriveSeed(base.Seed, seedPowerDiff, uint64(p))
		pts[p] = scn
	}
	return pts, nil
}

// printPowerDiff prints each pair's per-tag SNRs (mean received powers via
// the link budget at full reflection), their relative power difference and
// the measured error rate. The paper's observation — error rates an order of
// magnitude lower when the difference is under 10% — motivates power
// control.
func printPowerDiff(w io.Writer, pts []sim.Scenario, ms []sim.Metrics) error {
	rows := make([]report.PowerDiffRow, len(pts))
	for p, scn := range pts {
		dep := scn.Deployment
		p1 := scn.Channel.BackscatterRxPower(dep.ES.Distance(dep.Tags[0]), dep.Tags[0].Distance(dep.RX), 1)
		p2 := scn.Channel.BackscatterRxPower(dep.ES.Distance(dep.Tags[1]), dep.Tags[1].Distance(dep.RX), 1)
		noise := scn.Channel.NoiseFloorW()
		maxP := math.Max(p1, p2)
		rows[p] = report.PowerDiffRow{
			Case:       fmt.Sprintf("%d", p+1),
			SNR1:       dsp.DB(p1 / noise),
			SNR2:       dsp.DB(p2 / noise),
			Difference: (maxP - math.Min(p1, p2)) / maxP,
			ErrorRate:  ms[p].FER,
		}
	}
	_, err := io.WriteString(w, report.PowerDiffTable(rows))
	return err
}

// runFig5 prints the Friis field heat map.
func runFig5(w io.Writer, o Options) error {
	scn := o.base()
	field, err := scn.Channel.FriisField(scn.Deployment, 1, 60, 20)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, report.FieldHeatmap(field))
	return err
}

// microTagCounts are the tag counts of the Fig. 8 and Fig. 9(a) micro
// benchmarks, one curve each.
var microTagCounts = []int{2, 3, 4}

// gridExperiment is a micro-benchmark figure: frame-detection error versus
// one knob, set per point by set, with one curve per tag count.
func gridExperiment(id, title string, label uint64, xLabel string, xs []float64, set func(*sim.Scenario, float64)) Experiment {
	names := make([]string, len(microTagCounts))
	for i, n := range microTagCounts {
		names[i] = fmt.Sprintf("%d tags", n)
	}
	return Experiment{
		ID: id, Title: title,
		Points: func(o Options) ([]sim.Scenario, error) {
			return gridPoints(o.base(), label, xs, microTagCounts, set), nil
		},
		print: seriesTable(xLabel, names, xs, report.DetectionFER),
	}
}

// gridPoints builds the tagCounts × xs grid of a micro-benchmark sweep,
// tag-count major: every cell is one point, seeded from the sweep label and
// the cell coordinates.
func gridPoints(base sim.Scenario, label uint64, xs []float64, tagCounts []int, set func(*sim.Scenario, float64)) []sim.Scenario {
	pts := make([]sim.Scenario, 0, len(tagCounts)*len(xs))
	for _, n := range tagCounts {
		for i, x := range xs {
			scn := base
			scn.NumTags = n
			scn.Deployment.Tags = nil
			scn.Seed = sim.DeriveSeed(base.Seed, label, uint64(i), uint64(n))
			set(&scn, x)
			pts = append(pts, scn)
		}
	}
	return pts
}

// seriesTable folds a campaign laid out series-major — len(xs) consecutive
// points per name — into one curve per name.
func seriesTable(xLabel string, names []string, xs []float64, f report.MetricFn) fold {
	return func(w io.Writer, _ []sim.Scenario, ms []sim.Metrics) error {
		series := make([]report.Series, len(names))
		for i, name := range names {
			series[i].Name = name
			for j, x := range xs {
				series[i].Points = append(series[i].Points, report.Point{X: x, Metrics: ms[i*len(xs)+j]})
			}
		}
		_, err := io.WriteString(w, report.SeriesTable(xLabel, series, f))
		return err
	}
}

// floats converts tag counts to a table's X values.
func floats(ns []int) []float64 {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	return xs
}

// fig9TagCounts are the tag counts of Figs. 9(b) and 9(c) and the code
// ablation; codeFamilies are Fig. 9(b)'s curves.
var (
	fig9TagCounts = []int{2, 3, 4, 5}
	codeFamilies  = []pn.Family{pn.Family2NC, pn.FamilyGold}
)

// familyPoints builds Fig. 9(b): error rate versus concurrent tag count for
// Gold versus 2NC codes, family major. Both families run each tag count
// under the same derived seed — the comparison is paired, so the curves
// differ only in the code family.
func familyPoints(o Options) ([]sim.Scenario, error) {
	base := o.base()
	pts := make([]sim.Scenario, 0, len(codeFamilies)*len(fig9TagCounts))
	for _, fam := range codeFamilies {
		for i, n := range fig9TagCounts {
			scn := base
			scn.NumTags = n
			scn.Deployment.Tags = nil
			scn.Family = fam
			scn.Seed = sim.DeriveSeed(base.Seed, seedSweepCodes, uint64(i))
			pts = append(pts, scn)
		}
	}
	return pts, nil
}

// familyTable prints one error-rate curve per code family.
func familyTable(w io.Writer, pts []sim.Scenario, ms []sim.Metrics) error {
	names := make([]string, len(codeFamilies))
	for i, fam := range codeFamilies {
		names[i] = fam.String()
	}
	return seriesTable("tags", names, floats(fig9TagCounts), report.FER)(w, pts, ms)
}

// powerControlPoints builds Fig. 9(c)'s paired arms: for each tag count,
// `groups` random table placements (paper: 50), each run without and with
// the Algorithm 1 loop under one seed and placement. Placements are drawn
// deterministically up front from one stream across all tag counts. The
// layout is [tag count][group][arm], arm off first.
func powerControlPoints(base sim.Scenario, tagCounts []int, groups int) ([]sim.Scenario, error) {
	rng := rand.New(rand.NewSource(sim.DeriveSeed(base.Seed, seedSweepPowerControlPlacement)))
	pts := make([]sim.Scenario, 0, 2*groups*len(tagCounts))
	for _, n := range tagCounts {
		for g := 0; g < groups; g++ {
			scn, err := tablePlacement(base, n, rng)
			if err != nil {
				return nil, err
			}
			scn.Seed = sim.DeriveSeed(base.Seed, seedSweepPowerControl, uint64(g), uint64(n))
			// Both arms boot tags in arbitrary impedance states — the
			// regime Algorithm 1 is designed to repair (see Scenario doc).
			scn.RandomInitialImpedance = true
			scn.PowerControl = false
			pts = append(pts, scn)
			scn.PowerControl = true
			pts = append(pts, scn)
		}
	}
	return pts, nil
}

// fig9cPoints builds Fig. 9(c) with Groups placements per tag count.
func fig9cPoints(o Options) ([]sim.Scenario, error) {
	return powerControlPoints(o.base(), fig9TagCounts, o.Groups)
}

// armMeans averages one tag count's block of powerControlPoints: the mean
// FER without power control (even points) and with it (odd points).
func armMeans(block []sim.Metrics) (without, with float64) {
	groups := len(block) / 2
	for g := 0; g < groups; g++ {
		without += block[2*g].FER
		with += block[2*g+1].FER
	}
	return without / float64(groups), with / float64(groups)
}

// printPowerControl prints Fig. 9(c): mean error rate with and without
// power control per tag count.
func printPowerControl(w io.Writer, pts []sim.Scenario, ms []sim.Metrics) error {
	block := len(ms) / len(fig9TagCounts)
	means := make([]sim.Metrics, 2*len(fig9TagCounts))
	for i, n := range fig9TagCounts {
		without, with := armMeans(ms[i*block : (i+1)*block])
		means[i] = sim.Metrics{NumTags: n, FER: with}
		means[len(fig9TagCounts)+i] = sim.Metrics{NumTags: n, FER: without}
	}
	return seriesTable("tags", []string{"with power control", "without power control"},
		floats(fig9TagCounts), report.FER)(w, pts, means)
}

// runUserDetect prints the 10-tag user-detection accuracy.
func runUserDetect(w io.Writer, o Options) error {
	res, err := sim.UserDetection(o.base(), 10, o.Trials)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, report.UserDetection(res))
	return err
}

// runFig10 prints the deployment-study CDF quantiles.
func runFig10(w io.Writer, o Options) error {
	base := o.base()
	base.NumTags = 5
	none, pc, pcns, err := deploymentStudy(base, o.Groups)
	if err != nil {
		return err
	}
	out, err := report.CDFTable(
		[]string{"no control", "power control", "power control + selection"},
		[][]float64{none, pc, pcns})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, out)
	return err
}

// asyncDelays are Fig. 11's tag-2 delays in chips.
var asyncDelays = []float64{0, 0.25, 0.5, 1, 1.5, 2, 3, 4, 5}

// asyncPoints builds Fig. 11: two tags, tag 2 delayed by a growing number of
// chips relative to tag 1. Gold codes and a widened per-user search window
// keep delayed frames discoverable, as in the paper's correlation-based
// detector.
func asyncPoints(o Options) ([]sim.Scenario, error) {
	base := o.base()
	pts := make([]sim.Scenario, len(asyncDelays))
	for i, d := range asyncDelays {
		scn := base
		scn.NumTags = 2
		scn.Family = pn.FamilyGold
		scn.Deployment.Tags = nil
		scn.ExtraDelayChips = []float64{0, d}
		scn.SearchChips = int(math.Ceil(math.Abs(d))) + 2
		scn.JitterChips = 0.1
		scn.Seed = sim.DeriveSeed(base.Seed, seedSweepAsync, uint64(i))
		pts[i] = scn
	}
	return pts, nil
}

// asyncTable prints error rate versus tag-2 delay.
var asyncTable = seriesTable("delay(chips)", []string{"2 tags, tag-2 delayed"}, asyncDelays, report.FER)

// conditions are Fig. 12's §VII-C3 working conditions in table order.
// Interference power sits a few dB above the backscatter signal, as
// coexisting radios would.
var conditions = []struct {
	label string
	set   func(*sim.Scenario)
}{
	{"no interference", func(*sim.Scenario) {}},
	{"wifi interference", func(s *sim.Scenario) {
		s.Interferers = []channel.Interferer{&channel.WiFiInterferer{PowerDBm: s.Channel.NoiseFloorDBm + 14}}
	}},
	{"bluetooth interference", func(s *sim.Scenario) {
		s.Interferers = []channel.Interferer{&channel.BluetoothInterferer{PowerDBm: s.Channel.NoiseFloorDBm + 14}}
	}},
	{"ofdm excitation", func(s *sim.Scenario) { s.OFDMExcitation = true }},
}

// conditionPoints builds Fig. 12: three tags under each working condition.
func conditionPoints(o Options) ([]sim.Scenario, error) {
	base := o.base()
	base.NumTags = 3
	pts := make([]sim.Scenario, len(conditions))
	for i, c := range conditions {
		scn := base
		scn.Deployment.Tags = nil
		scn.Seed = sim.DeriveSeed(base.Seed, seedWorkingConditions, uint64(i))
		c.set(&scn)
		pts[i] = scn
	}
	return pts, nil
}

// printConditions prints the correct packet reception rate per condition.
func printConditions(w io.Writer, _ []sim.Scenario, ms []sim.Metrics) error {
	pts := make([]report.Point, len(conditions))
	for i, c := range conditions {
		pts[i] = report.Point{Label: c.label, Metrics: ms[i]}
	}
	_, err := io.WriteString(w, report.PointsTable(pts, report.PRR, "PRR"))
	return err
}

// detectorPoints compares the paper's plain correlation receiver against
// the SIC-enhanced receiver at five concurrent tags (DESIGN.md ablation 1).
// Both arms share the seed, so they decode the same collisions.
func detectorPoints(o Options) ([]sim.Scenario, error) {
	pts := make([]sim.Scenario, 2)
	for v, sic := range []bool{false, true} {
		scn := o.base()
		scn.NumTags = 5
		scn.SIC = sic
		pts[v] = scn
	}
	return pts, nil
}

func printDetector(w io.Writer, _ []sim.Scenario, ms []sim.Metrics) error {
	for v, name := range []string{"plain correlation", "with SIC"} {
		fmt.Fprintf(w, "%-20s FER %.4f  false frames %d\n", name, ms[v].FER, ms[v].FalseFrames)
	}
	return nil
}

// impedanceStates are the ladder granularities of ablation 2.
var impedanceStates = []int{2, 4, 8}

// impedancePoints sweeps the impedance-ladder granularity (ablation 2): the
// Fig. 9(c) arms at four tags over Groups/2+1 placements per ladder. Each
// ladder draws the same placements.
func impedancePoints(o Options) ([]sim.Scenario, error) {
	var pts []sim.Scenario
	for _, states := range impedanceStates {
		base := o.base()
		base.ImpedanceStates = states
		block, err := powerControlPoints(base, []int{4}, o.Groups/2+1)
		if err != nil {
			return nil, err
		}
		pts = append(pts, block...)
	}
	return pts, nil
}

func printImpedance(w io.Writer, _ []sim.Scenario, ms []sim.Metrics) error {
	block := len(ms) / len(impedanceStates)
	for i, states := range impedanceStates {
		without, with := armMeans(ms[i*block : (i+1)*block])
		fmt.Fprintf(w, "%d impedance states: FER %.4f with PC, %.4f without\n", states, with, without)
	}
	return nil
}

// Ablation 4 adds the synchronous-CDMA upper bound (Walsh) to the
// Fig. 9(b) comparison.
var ablationFamilies = []pn.Family{pn.FamilyWalsh, pn.FamilyGold, pn.Family2NC}

// codeAblationPoints builds the tags × family grid, tag-count major; every
// cell keeps the base seed so families are paired.
func codeAblationPoints(o Options) ([]sim.Scenario, error) {
	var pts []sim.Scenario
	for _, n := range fig9TagCounts {
		for _, fam := range ablationFamilies {
			scn := o.base()
			scn.NumTags = n
			scn.Family = fam
			pts = append(pts, scn)
		}
	}
	return pts, nil
}

func printCodeAblation(w io.Writer, _ []sim.Scenario, ms []sim.Metrics) error {
	fmt.Fprintf(w, "%6s %10s %10s %10s\n", "tags", "walsh", "gold", "2nc")
	k := 0
	for _, n := range fig9TagCounts {
		fmt.Fprintf(w, "%6d", n)
		for range ablationFamilies {
			fmt.Fprintf(w, " %10.4f", ms[k].FER)
			k++
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runAblationSelect compares greedy against annealing node selection on bad
// deployments (ablation 3).
func runAblationSelect(w io.Writer, o Options) error {
	for _, greedy := range []bool{true, false} {
		base := o.base()
		base.NumTags = 5
		base.PowerControl = true
		base.RandomInitialImpedance = true
		var sum float64
		groups := o.Groups/2 + 1
		for g := 0; g < groups; g++ {
			scn := base
			scn.Seed = sim.DeriveSeed(o.Seed, seedAblationSelect, uint64(g))
			sys, err := core.New(core.Config{
				Scenario:      scn,
				NodeSelection: true,
				NodeSelect:    mac.NodeSelectConfig{Greedy: greedy},
			})
			if err != nil {
				return err
			}
			rep, err := sys.Run()
			if err != nil {
				return err
			}
			sum += rep.Final.FER
		}
		name := "annealing"
		if greedy {
			name = "greedy"
		}
		fmt.Fprintf(w, "%-10s node selection: mean FER %.4f over %d groups\n",
			name, sum/float64(groups), groups)
	}
	return nil
}

// cfoPPMs are the per-tag carrier-frequency offsets of the CFO extension.
var cfoPPMs = []float64{0, 0.05, 0.1, 0.2, 0.5, 1.0}

// cfoPoints sweeps per-tag carrier-frequency offset with the receiver's
// decision-directed phase tracking off and on — the oscillator-tolerance
// question the paper's §VIII discussion raises and defers.
func cfoPoints(o Options) ([]sim.Scenario, error) {
	var pts []sim.Scenario
	for _, ppm := range cfoPPMs {
		for _, tracking := range []bool{false, true} {
			scn := o.base()
			scn.NumTags = 2
			scn.CFOppm = ppm
			scn.PhaseTracking = tracking
			pts = append(pts, scn)
		}
	}
	return pts, nil
}

func printCFO(w io.Writer, _ []sim.Scenario, ms []sim.Metrics) error {
	fmt.Fprintf(w, "%10s %14s %14s\n", "CFO (ppm)", "plain FER", "tracking FER")
	for i, ppm := range cfoPPMs {
		fmt.Fprintf(w, "%10.2f %14.4f %14.4f\n", ppm, ms[2*i].FER, ms[2*i+1].FER)
	}
	return nil
}

// ackLosses are the ACK downlink loss rates of the ACK-loss extension.
var ackLosses = []float64{0, 0.25, 0.5, 0.9}

// ackLossPoints sweeps ACK downlink loss under Algorithm 1 — the control
// loop's robustness to an unreliable feedback channel.
func ackLossPoints(o Options) ([]sim.Scenario, error) {
	pts := make([]sim.Scenario, len(ackLosses))
	for i, loss := range ackLosses {
		scn := o.base()
		scn.NumTags = 3
		scn.PowerControl = true
		scn.RandomInitialImpedance = true
		scn.AckLossProb = loss
		pts[i] = scn
	}
	return pts, nil
}

// printAckLoss reports how often Algorithm 1 still converges per loss rate.
func printAckLoss(w io.Writer, _ []sim.Scenario, ms []sim.Metrics) error {
	fmt.Fprintf(w, "%10s %12s %12s %14s\n", "ACK loss", "FER", "PC rounds", "converged")
	for i, loss := range ackLosses {
		fmt.Fprintf(w, "%10.2f %12.4f %12d %14v\n",
			loss, ms[i].FER, ms[i].PowerControlRounds, ms[i].PowerControlConverged)
	}
	return nil
}

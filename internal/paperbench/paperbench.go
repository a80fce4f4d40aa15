// Package paperbench defines one runnable experiment per table and figure
// of the paper's evaluation (plus the DESIGN.md ablations). An experiment is
// a value: a pure point builder and a fold. Run executes the points as one
// sim.RunCampaign and folds the metrics into the same rows or series the
// paper reports. cmd/cbmabench, the repository bench harness and the cbma
// facade all dispatch through this registry, so they emit identical output.
package paperbench

import (
	"errors"
	"fmt"
	"io"

	"cbma/internal/obs"
	"cbma/internal/sim"
)

// ErrBadOptions reports an option set that cannot size an experiment: a
// non-positive packet, group, trial or payload count would print NaN
// tables instead of failing.
var ErrBadOptions = errors.New("paperbench: invalid options")

// Options scales the experiment workloads. DefaultOptions is the
// full-fidelity configuration used for EXPERIMENTS.md; Quick returns a
// configuration suitable for smoke runs.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Packets per sweep point (paper: 1000 collided packets per point).
	Packets int
	// Groups of random placements for the macro benchmarks (paper: 50).
	Groups int
	// Trials for the user-detection experiment (paper: 1000).
	Trials int
	// PayloadBytes per frame.
	PayloadBytes int
	// Obs, when non-nil, is attached to every scenario the experiments
	// build, collecting stage timings, events and campaign progress.
	// Strictly observational (see sim.Scenario.Obs); excluded from JSON so
	// manifests hashing an Options value ignore it.
	Obs *obs.Observer `json:"-"`
}

// DefaultOptions returns the full-fidelity workload.
func DefaultOptions() Options {
	return Options{Seed: 1, Packets: 200, Groups: 25, Trials: 1000, PayloadBytes: 16}
}

// Quick returns a fast smoke-run workload.
func Quick() Options {
	return Options{Seed: 1, Packets: 30, Groups: 4, Trials: 60, PayloadBytes: 8}
}

// validate rejects the counts no experiment can run with.
func (o Options) validate() error {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"packets", o.Packets}, {"groups", o.Groups},
		{"trials", o.Trials}, {"payload bytes", o.PayloadBytes},
	} {
		if c.v <= 0 {
			return fmt.Errorf("%w: %s must be positive, got %d", ErrBadOptions, c.name, c.v)
		}
	}
	return nil
}

// BaseScenario exposes the canonical scenario an option set implies — the
// identity experiments start from before per-figure modifications. cbmabench
// hashes it (sim.Scenario.Hash) into its run manifest so BENCH results are
// correlatable with cbmasim runs and cbmad cache entries.
func (o Options) BaseScenario() sim.Scenario { return o.base() }

// base builds the canonical scenario for an option set.
func (o Options) base() sim.Scenario {
	scn := sim.DefaultScenario()
	scn.Seed = o.Seed
	scn.Packets = o.Packets
	scn.PayloadBytes = o.PayloadBytes
	scn.Obs = o.Obs
	return scn
}

// fold writes an experiment's table from its campaign: the points and their
// metrics, indexed alike.
type fold func(w io.Writer, pts []sim.Scenario, ms []sim.Metrics) error

// Experiment is one registry entry.
type Experiment struct {
	// ID is the CLI name (e.g. "fig8a"); Title describes the paper
	// artifact it regenerates.
	ID, Title string
	// Points builds the experiment's campaign, a pure function of the
	// options. It is nil for the few experiments that are not a flat point
	// list; those run their own loop.
	Points func(Options) ([]sim.Scenario, error)
	// print folds the campaign's metrics into the printed table.
	print fold
	// run replaces Points and print where Points is nil.
	run func(w io.Writer, o Options) error
}

// Run executes the experiment and writes its table to w: the points run as
// one campaign labelled with the experiment's ID, and the fold prints them.
func (e Experiment) Run(w io.Writer, o Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	if e.run != nil {
		return e.run(w, o)
	}
	pts, err := e.Points(o)
	if err != nil {
		return err
	}
	ms, err := sim.RunCampaign(pts, sim.CampaignOpts{What: e.ID})
	if err != nil {
		return err
	}
	return e.print(w, pts, ms)
}

// All returns the registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I — summary of existing backscatter systems",
			Points: tenTagPoints, print: printTable1},
		{ID: "table2", Title: "Table II — error rate vs power difference between tags",
			Points: powerDiffPoints, print: printPowerDiff},
		// Fig. 5 is the closed-form Friis field: no simulation at all.
		{ID: "fig5", Title: "Fig. 5 — theoretical backscatter signal strength field",
			run: runFig5},
		gridExperiment("fig8a", "Fig. 8(a) — frame detection error vs distance",
			seedSweepDistance, "distance(m)", []float64{0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0},
			func(s *sim.Scenario, d float64) { s.TagLineDistance = d }),
		gridExperiment("fig8b", "Fig. 8(b) — frame detection error vs ES transmit power",
			seedSweepTxPower, "ES power(dBm)", []float64{-5, 0, 5, 10, 15, 20},
			func(s *sim.Scenario, p float64) {
				s.TagLineDistance = 2.5 // power matters where links are marginal
				s.Channel.TxPowerDBm = p
			}),
		gridExperiment("fig8c", "Fig. 8(c) — frame detection error vs preamble length",
			seedSweepPreamble, "preamble(bits)", []float64{4, 8, 16, 32, 64},
			func(s *sim.Scenario, bits float64) {
				s.TagLineDistance = 3.0
				s.Frame.PreambleBits = int(bits)
			}),
		gridExperiment("fig9a", "Fig. 9(a) — error rate vs bitrate",
			seedSweepBitrate, "bitrate(bps)", []float64{250e3, 500e3, 1e6, 2.5e6, 5e6, 10e6, 20e6},
			func(s *sim.Scenario, r float64) { s.ChipRateHz = r }),
		{ID: "fig9b", Title: "Fig. 9(b) — error rate, Gold vs 2NC codes",
			Points: familyPoints, print: familyTable},
		{ID: "fig9c", Title: "Fig. 9(c) — error rate with/without power control",
			Points: fig9cPoints, print: printPowerControl},
		// User detection's trials share one engine (sim.UserDetection).
		{ID: "userdetect", Title: "§VII-B2 — user detection accuracy (10 tags)",
			run: runUserDetect},
		// Fig. 10's node-selection arm re-places tags in the core.System loop.
		{ID: "fig10", Title: "Fig. 10 — CDFs of error rate (5 tags, macro deployment)",
			run: runFig10},
		{ID: "fig11", Title: "Fig. 11 — error rate under tag asynchrony",
			Points: asyncPoints, print: asyncTable},
		{ID: "fig12", Title: "Fig. 12 — packet reception under working conditions",
			Points: conditionPoints, print: printConditions},
		{ID: "headline", Title: "Headline — 10-tag aggregate rate and gain vs TDMA",
			Points: tenTagPoints, print: printHeadline},
		{ID: "ablation-detector", Title: "Ablation — plain correlation receiver vs SIC",
			Points: detectorPoints, print: printDetector},
		{ID: "ablation-impedance", Title: "Ablation — impedance ladder granularity",
			Points: impedancePoints, print: printImpedance},
		{ID: "ablation-codes", Title: "Ablation — Walsh (sync-CDMA bound) vs Gold vs 2NC",
			Points: codeAblationPoints, print: printCodeAblation},
		// Node selection runs the core.System loop per group.
		{ID: "ablation-select", Title: "Ablation — greedy vs annealing node selection",
			run: runAblationSelect},
		{ID: "ext-cfo", Title: "Extension — tag oscillator CFO vs phase tracking",
			Points: cfoPoints, print: printCFO},
		{ID: "ext-ackloss", Title: "Extension — power control under ACK downlink loss",
			Points: ackLossPoints, print: printAckLoss},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Package core assembles the full closed-loop CBMA system of §V: the
// waveform engine (tags, channel, receiver), the ACK-driven Algorithm 1
// power-control loop, and the §V-C node-selection scheme that re-places
// "bad" tags using the theoretical signal-strength field. This is the
// paper's primary contribution wired together; the public cbma package
// re-exports it.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"cbma/internal/geom"
	"cbma/internal/mac"
	"cbma/internal/sim"
)

// ErrBadConfig reports invalid system configuration.
var ErrBadConfig = errors.New("core: invalid configuration")

// seedNodeSelection labels the node selector's stream for sim.DeriveSeed.
// Kept clear of internal/paperbench's figure labels (1–11, 201–202, 301),
// internal/sim's fault sweeps (12) and internal/baseline's (210–212).
const seedNodeSelection uint64 = 203

// Config describes a CBMA deployment run.
type Config struct {
	// Scenario is the radio/deployment/workload description. Its
	// PowerControl flag selects whether Algorithm 1 runs.
	Scenario sim.Scenario
	// NodeSelection enables the §V-C replacement of tags whose ACK ratio
	// stays below the cutoff after power control.
	NodeSelection bool
	// SelectionRounds bounds the replace-and-remeasure iterations. Zero
	// selects 3.
	SelectionRounds int
	// CandidatePositions sizes the pool of idle-tag positions node
	// selection may draw from. Zero selects 3 × NumTags.
	CandidatePositions int
	// NodeSelect tunes the selector (cutoffs, annealing, greedy mode).
	NodeSelect mac.NodeSelectConfig
}

// Report is the outcome of a System run.
type Report struct {
	// Initial is measured before any node selection; Final after the last
	// selection round (they are equal when node selection is off or never
	// triggers).
	Initial, Final sim.Metrics
	// Replacements counts accepted tag re-placements.
	Replacements int
	// SelectionRounds counts executed replace-and-remeasure iterations.
	SelectionRounds int
	// FinalPositions records where the tags ended up.
	FinalPositions []geom.Point
}

// System is a runnable CBMA deployment.
type System struct {
	cfg        Config
	engine     *sim.Engine
	selector   *mac.NodeSelector
	candidates []geom.Point
	rng        *rand.Rand
}

// New validates the configuration and builds the system.
func New(cfg Config) (*System, error) {
	if cfg.SelectionRounds == 0 {
		cfg.SelectionRounds = 3
	}
	if cfg.SelectionRounds < 0 {
		return nil, fmt.Errorf("%w: negative selection rounds", ErrBadConfig)
	}
	if cfg.CandidatePositions == 0 {
		cfg.CandidatePositions = 3 * cfg.Scenario.NumTags
	}
	e, err := sim.NewEngine(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		engine: e,
		rng:    rand.New(rand.NewSource(sim.DeriveSeed(cfg.Scenario.Seed, seedNodeSelection))),
	}
	if cfg.NodeSelection {
		// The engine's validated scenario carries the defaulted deployment
		// with caller-provided tag positions intact; re-deriving it from the
		// raw config here used to replace a configured layout with the stock
		// two-node geometry whenever the room was left zero.
		dep := e.Scenario().Deployment
		if cfg.NodeSelect.Obs == nil {
			// Node selection shares the scenario's observer by default, so a
			// single Scenario.Obs instruments the whole closed loop.
			cfg.NodeSelect.Obs = cfg.Scenario.Obs
		}
		s.selector = mac.NewNodeSelector(cfg.NodeSelect, e.Scenario().Channel, dep, s.rng)
		// Draw the idle-tag candidate pool once; §V-C replaces bad tags
		// with idle tags already present in the environment.
		for i := 0; i < cfg.CandidatePositions; i++ {
			s.candidates = append(s.candidates, dep.Room.RandomPoint(s.rng))
		}
	}
	return s, nil
}

// Engine exposes the underlying engine (tests and the CLI read tag state).
func (s *System) Engine() *sim.Engine { return s.engine }

// Run executes the deployment: measure (with power control if configured),
// then — when node selection is enabled — repeatedly replace
// under-performing tags and re-measure.
func (s *System) Run() (Report, error) {
	return s.RunContext(context.Background()) //cbma:allow ctxflow public convenience entrypoint roots its own context
}

// RunContext is Run with cooperative cancellation. When ctx fires, the
// report built so far is returned together with the context's error: the
// measurement in flight contributes its partial, Interrupted metrics (see
// sim.Engine.RunContext), and no further selection rounds start.
func (s *System) RunContext(ctx context.Context) (Report, error) {
	var rep Report
	m, err := s.engine.RunContext(ctx)
	if err != nil {
		rep.Initial = m
		rep.Final = m
		rep.FinalPositions = s.positions()
		return rep, err
	}
	rep.Initial = m
	rep.Final = m
	if s.selector == nil {
		rep.FinalPositions = s.positions()
		return rep, nil
	}
	for round := 0; round < s.cfg.SelectionRounds; round++ {
		if err := ctx.Err(); err != nil {
			rep.FinalPositions = s.positions()
			return rep, err
		}
		moved, err := s.selectOnce(rep.Final)
		if err != nil {
			return rep, err
		}
		if moved == 0 {
			break
		}
		rep.Replacements += moved
		rep.SelectionRounds++
		m, err := s.engine.RunWithPositionsContext(ctx, s.positions())
		if err != nil {
			rep.FinalPositions = s.positions()
			return rep, err
		}
		rep.Final = m
	}
	rep.FinalPositions = s.positions()
	return rep, nil
}

// selectOnce proposes a replacement for every bad tag — judged by the
// per-tag delivery ratio of the last measurement, since the power-control
// rounds reset the tags' own ACK windows — returning how many moves were
// accepted.
func (s *System) selectOnce(last sim.Metrics) (int, error) {
	tags := s.engine.Tags()
	active := s.positions()
	moved := 0
	for i, tg := range tags {
		if !s.selector.IsBadRatio(last.TagDeliveryRatio(tg.ID())) {
			continue
		}
		others := make([]geom.Point, 0, len(active)-1)
		for j, p := range active {
			if j != i {
				others = append(others, p)
			}
		}
		pos, accepted, err := s.selector.Replace(tg.Position(), s.candidates, others)
		if err != nil {
			if errors.Is(err, mac.ErrNoCandidates) {
				continue // pool exhausted near this tag; keep it
			}
			return moved, err
		}
		if accepted {
			tg.MoveTo(pos)
			active[i] = pos
			moved++
		}
	}
	return moved, nil
}

// positions snapshots the current tag positions.
func (s *System) positions() []geom.Point {
	tags := s.engine.Tags()
	out := make([]geom.Point, len(tags))
	for i, tg := range tags {
		out[i] = tg.Position()
	}
	return out
}

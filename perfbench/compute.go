package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"cbma/internal/obs"
	"cbma/internal/sim"
)

// grid is a compute workload: a tag-count × distance campaign and the FER
// reference its output check compares against.
type grid struct {
	Name       string
	GoldDegree uint
	Payload    int
	Packets    int
	SIC        bool
	// Workers is the timed campaigns' worker budget; 0 means GOMAXPROCS.
	Workers   int
	Tags      []int
	Distances []float64
	// RefFER is the aggregate frame error rate recorded with the benchmark
	// (perfbench -calibrate); Deff is the recorded variance inflation of a
	// campaign's FER over the binomial variance of its frame count (frames
	// of one collision round fail together).
	RefFER float64
	Deff   float64
}

var fig8aGrid = grid{
	// One worker: on a shared two-vCPU host this grid's campaign rates
	// spread twice as wide at two workers as at one (NOTES.md, Bounds).
	Name: "fig8a-sweep", GoldDegree: 5, Payload: 8, Packets: 50, Workers: 1,
	Tags:      []int{2, 3, 4},
	Distances: []float64{0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0},
	// -calibrate 24 -seed 1000: 0.022675 over 194400 frames, Deff 1.26.
	RefFER: 0.022675, Deff: 1.5,
}

var denseGrid = grid{
	Name: "dense-sic", GoldDegree: 7, Payload: 8, Packets: 5, SIC: true,
	Tags:      []int{6, 8, 10},
	Distances: []float64{0.5, 1.5, 2.5},
	// -calibrate 30 -seed 1000: 0.031481 over 10800 frames, Deff 10.5.
	RefFER: 0.031481, Deff: 12,
}

// DeriveSeed labels of the benchmark's own inputs, clear of the labels the
// simulator's sweeps use.
const (
	labelCampaign uint64 = 0xbe0c
	labelWarmup   uint64 = 0xbe0d
)

// ferZ is the width of the output check's band in standard deviations.
const ferZ = 5.0

// points builds campaign k of the grid for seed.
func (g grid) points(seed int64, label, k uint64) []sim.Scenario {
	pts := make([]sim.Scenario, 0, len(g.Tags)*len(g.Distances))
	for ti, n := range g.Tags {
		for di, d := range g.Distances {
			scn := sim.DefaultScenario()
			scn.NumTags = n
			scn.GoldDegree = g.GoldDegree
			scn.PayloadBytes = g.Payload
			scn.Packets = g.Packets
			scn.SIC = g.SIC
			scn.TagLineDistance = d
			scn.Deployment.Tags = nil
			scn.Seed = sim.DeriveSeed(seed, label, k, uint64(ti), uint64(di))
			pts = append(pts, scn)
		}
	}
	return pts
}

// ferBand returns the accepted interval for an aggregate FER over n frames.
func (g grid) ferBand(n int64) (lo, hi float64) {
	p := g.RefFER
	half := ferZ * math.Sqrt(g.Deff*p*(1-p)/float64(n))
	return p - half, p + half
}

// workers returns the timed campaigns' worker budget.
func (g grid) workers() int {
	if g.Workers > 0 {
		return g.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// checkFER reports whether missed of sent frames is consistent with the
// recorded reference.
func (g grid) checkFER(sent, missed int64) error {
	if sent == 0 {
		return fmt.Errorf("no frames sent")
	}
	fer := float64(missed) / float64(sent)
	lo, hi := g.ferBand(sent)
	if fer < lo || fer > hi {
		return fmt.Errorf("aggregate FER %.5f over %d frames outside the reference band [%.5f, %.5f]", fer, sent, lo, hi)
	}
	return nil
}

// campaign is one timed RunCampaign of a grid.
type campaign struct {
	wall    time.Duration
	cpu     time.Duration
	rounds  int64
	sent    int64
	missed  int64
	metrics []sim.Metrics
	failed  int
}

func (c campaign) rate() float64 { return float64(c.rounds) / c.wall.Seconds() }

// runCampaign runs the points once at the worker budget, with o (nil: off)
// as the campaign observer.
func runCampaign(pts []sim.Scenario, workers int, o *obs.Observer, what string) campaign {
	cpu0 := cpuTime()
	t0 := time.Now()
	ms, err := sim.RunCampaign(pts, sim.CampaignOpts{Workers: workers, What: what, Obs: o})
	c := campaign{wall: time.Since(t0), cpu: cpuTime() - cpu0, metrics: ms}
	if err != nil {
		c.failed = len(pts)
		if ce, ok := err.(*sim.CampaignError); ok {
			c.failed = len(ce.Points)
		}
	}
	for i, m := range ms {
		c.rounds += int64(m.RoundsExecuted)
		c.sent += int64(m.FramesSent)
		c.missed += int64(m.FramesSent - m.FramesDelivered)
		if m.RoundsExecuted != pts[i].Packets && c.failed == 0 {
			c.failed++
		}
	}
	return c
}

// sameMetrics compares two campaigns' results bit for bit (through their
// JSON encoding, which is exact for float64).
func sameMetrics(a, b []sim.Metrics) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}

func runFig8a(cfg runConfig) (*outcome, error)    { return runCompute(cfg, fig8aGrid) }
func runDenseSIC(cfg runConfig) (*outcome, error) { return runCompute(cfg, denseGrid) }

// runCompute runs a grid's campaigns back to back (a closed loop) for the
// measured time. Campaigns come in pairs on identical inputs: the first of
// a pair is "cold" (new inputs), the second "warm" (repeated inputs; there
// is no result cache in-process, so the two should match). The repeat must
// reproduce the first bit for bit. In a traced run the repeat carries an
// obs.Observer, which gives the stage histograms and, paired with the
// untraced first run, the tracing overhead.
func runCompute(cfg runConfig, g grid) (*outcome, error) {
	o := newOutcome()
	workers := g.workers()

	// Set-up: the warm-up that builds the code families and the lazy
	// filter-bank spectra, one packet per point, timed eleven times, each
	// from a collected heap.
	var setups []float64
	for i := 0; i < 11; i++ {
		pts := g.points(cfg.Seed, labelWarmup, uint64(i))
		for j := range pts {
			pts[j].Packets = 1
		}
		runtime.GC()
		c := runCampaign(pts, workers, nil, g.Name+" warm-up")
		if c.failed > 0 {
			return nil, fmt.Errorf("warm-up campaign failed")
		}
		setups = append(setups, c.wall.Seconds())
	}

	var tracer *obs.Observer
	if cfg.Trace {
		tracer = obs.New(obs.Config{Clock: obs.SystemClock()})
	}
	var (
		m0, m1             runtime.MemStats
		cold, warm         []float64 // campaign latencies, ms
		rates, tracedRates []float64
		rounds             int64
		sent, missed       int64
		elapsed            time.Duration
		first              []sim.Metrics
		cpuRates           []float64
	)
	// The set-up's allocation bursts can push the heap past its goal, so
	// resident memory is sampled over the timed campaigns only, starting
	// from a heap returned to the OS.
	debug.FreeOSMemory()
	mon := startRSSMonitor(os.Getpid(), 50*time.Millisecond)
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	pairs := 0
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		pts := g.points(cfg.Seed, labelCampaign, uint64(k))
		if k == 0 {
			hs, err := scenarioHashes(pts)
			if err != nil {
				return nil, err
			}
			o.Meta["scenario_hash"] = hs
		}
		var a, b campaign
		if cfg.Trace && k%2 == 1 {
			// The second campaign of a pair runs faster (warmer heap);
			// alternating the order keeps that out of the tracing overhead.
			b = runCampaign(pts, workers, tracer, g.Name)
			a = runCampaign(pts, workers, nil, g.Name)
		} else {
			a = runCampaign(pts, workers, nil, g.Name)
			b = runCampaign(pts, workers, tracer, g.Name)
		}
		pairs++
		o.Attempted += 2 * len(pts)
		if a.failed+b.failed > 0 {
			o.fail(a.failed+b.failed, "campaign %d: %d points failed", k, a.failed+b.failed)
		}
		if !sameMetrics(a.metrics, b.metrics) {
			o.fail(len(pts), "campaign %d: repeat on identical inputs differs", k)
		}
		if k == 0 {
			first = a.metrics
		}
		rounds += a.rounds + b.rounds
		sent += a.sent
		missed += a.missed
		elapsed += a.wall + b.wall
		cold = append(cold, float64(a.wall)/1e6)
		warm = append(warm, float64(b.wall)/1e6)
		rates = append(rates, a.rate())
		cpuRates = append(cpuRates, float64(a.rounds)/a.cpu.Seconds()*float64(workers))
		if cfg.Trace {
			tracedRates = append(tracedRates, b.rate())
		} else {
			rates = append(rates, b.rate())
		}
	}
	runtime.ReadMemStats(&m1)
	rssKB := mon.Stop()
	o.Meta["campaign_rates"] = map[string][]float64{"wall": rates, "cpu": cpuRates}
	o.Attempted++ // the FER check
	if err := g.checkFER(sent, missed); err != nil {
		o.fail(1, "%v", err)
	}
	lo, hi := g.ferBand(sent)
	o.Meta["fer"] = map[string]any{"sent": sent, "missed": missed, "value": ratio(float64(missed), float64(sent)), "band": []float64{lo, hi}}
	o.Meta["campaigns"] = 2 * pairs
	o.Meta["points_per_campaign"] = len(g.Tags) * len(g.Distances)
	o.Meta["workers"] = workers
	o.Meta["generator_lateness_ms"] = 0.0 // closed loop: every campaign starts when due

	p := map[string]pctl{
		"warm_p50_ms": percentile(warm, 0.5), "warm_p90_ms": percentile(warm, 0.9),
		"cold_p50_ms": percentile(cold, 0.5), "cold_p90_ms": percentile(cold, 0.9),
	}
	o.Meta["percentiles"] = p
	for name, v := range p {
		o.Metrics[name] = v.Value
	}
	o.Metrics["setup_s"] = median(setups)
	o.Metrics["rounds_per_s"] = median(rates)
	o.Metrics["alloc_kb_per_round"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(rounds)
	o.Metrics["peak_rss_mb"] = float64(rssKB) / 1024
	o.Metrics["jobs_per_s"] = float64(2*pairs) / elapsed.Seconds()
	o.Meta["samples"] = map[string]int{"rounds_per_s": len(rates), "setup_s": len(setups)}

	if !cfg.Trace {
		return o, nil
	}
	stagesFrom(o, tracer.Registry().Snapshot(), float64(pairs))
	o.Metrics["obs.trace_overhead"] = median(tracedRates) / median(rates)
	engineNew, err := timeNewEngine(g.points(cfg.Seed, labelCampaign, 0))
	if err != nil {
		return nil, err
	}
	o.Metrics["sim.engine_new_ns"] = engineNew
	// The scaling figure, one worker against GOMAXPROCS: campaign 0 once
	// more at the budget the timed loop does not use.
	other := 1
	if workers == 1 {
		other = runtime.GOMAXPROCS(0)
	}
	pts := g.points(cfg.Seed, labelCampaign, 0)
	c := runCampaign(pts, other, nil, fmt.Sprintf("%s w%d", g.Name, other))
	o.Attempted += len(pts)
	if c.failed > 0 || !sameMetrics(c.metrics, first) {
		o.fail(len(pts), "%d-worker campaign differs from the %d-worker one", other, workers)
	}
	w1, wn := median(rates), c.rate()
	if other == 1 {
		w1, wn = wn, w1
	}
	o.Metrics["sim.rounds_per_s_w1"] = w1
	o.Metrics["sim.worker_speedup"] = wn / w1
	sh, err := g.shape()
	if err != nil {
		return nil, err
	}
	if err := kernelRows(o, sh); err != nil {
		return nil, err
	}
	fillUnexercised(o)
	return o, nil
}

// stagesFrom reads the engine's stage and receiver-phase histograms (and
// the campaign point histogram) from an observer snapshot. Stage and phase
// totals are per campaign: the sums divided by the traced campaign count.
func stagesFrom(o *outcome, snap obs.Snapshot, campaigns float64) {
	h := map[string]obs.HistogramSnapshot{}
	for _, s := range snap.Histograms {
		h[s.Name] = s
	}
	var total float64
	for _, st := range []string{"build", "mix", "decode"} {
		total += float64(h["sim.stage."+st+"_ns"].Sum)
	}
	for _, st := range []string{"build", "mix", "decode"} {
		v := float64(h["sim.stage."+st+"_ns"].Sum)
		o.Metrics["sim.stage."+st+"_ns"] = v / campaigns
		o.Metrics["sim.stage."+st+"_share"] = ratio(v, total)
	}
	for _, ph := range []string{"sync", "detect", "decode"} {
		o.Metrics["rx.phase."+ph+"_ns"] = float64(h["rx.phase."+ph+"_ns"].Sum) / campaigns
	}
	pt := h["campaign.point_ns"]
	o.Metrics["sim.point_p50_ms"] = float64(pt.Quantile(0.5)) / 1e6
	o.Metrics["sim.point_max_ms"] = float64(pt.Max) / 1e6
	o.Meta["stage_samples"] = map[string]int64{
		"sim.stage": h["sim.stage.mix_ns"].Count, "rx.phase": h["rx.phase.sync_ns"].Count,
		"campaign.point": pt.Count,
	}
}

// timeNewEngine returns the median sim.NewEngine time over the points.
func timeNewEngine(pts []sim.Scenario) (float64, error) {
	var ns []float64
	for rep := 0; rep < 3; rep++ {
		for _, scn := range pts {
			t0 := time.Now()
			if _, err := sim.NewEngine(scn); err != nil {
				return 0, err
			}
			ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		}
	}
	return median(ns), nil
}

// scenarioHashes digests the points' content hashes into one identity.
func scenarioHashes(pts []sim.Scenario) (string, error) {
	hs := make([]string, len(pts))
	for i, p := range pts {
		h, err := p.Hash()
		if err != nil {
			return "", err
		}
		hs[i] = h
	}
	return obs.HashJSON(hs)
}

// fillUnexercised reports every per-layer metric the workload did not
// exercise as 0.
func fillUnexercised(o *outcome) {
	for _, s := range perLayer {
		if _, ok := o.Metrics[s.Name]; !ok {
			o.Metrics[s.Name] = 0
		}
	}
}

// calibrateFER prints the reference FER and variance inflation of a compute
// workload from n campaigns, for recording in the grid table.
func calibrateFER(name string, seed int64, n int) error {
	var g grid
	switch name {
	case fig8aGrid.Name:
		g = fig8aGrid
	case denseGrid.Name:
		g = denseGrid
	default:
		return fmt.Errorf("%s has no FER reference", name)
	}
	var fers []float64
	var sent, missed int64
	for k := 0; k < n; k++ {
		c := runCampaign(g.points(seed, labelCampaign, uint64(k)), g.workers(), nil, g.Name)
		if c.failed > 0 {
			return fmt.Errorf("campaign %d failed", k)
		}
		sent += c.sent
		missed += c.missed
		fers = append(fers, float64(c.missed)/float64(c.sent))
	}
	p := float64(missed) / float64(sent)
	var v float64
	for _, f := range fers {
		v += (f - p) * (f - p)
	}
	v /= float64(n - 1)
	per := float64(sent) / float64(n)
	fmt.Printf("%s: RefFER %.6f over %d frames; campaign FER sd %.6f; Deff %.3f\n", name, p, sent, math.Sqrt(v), v/(p*(1-p)/per))
	return nil
}

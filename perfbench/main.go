// Command perfbench is the repository benchmark: it runs one workload of the
// CBMA simulator or the cbmad daemon for a fixed time, checks every output,
// and prints one JSON result line. With -trace 0 the line carries the
// end-to-end metrics; with -trace 1 it carries the per-layer metrics, taken
// from outside each layer (timing decorators around the core.Runner,
// core.Store and shard.Transport seams, the obs.Observer histograms, cbmad's
// /metrics and per-job event streams) — nothing inside the program changes.
//
//	bash perfbench/run.sh --workload fig8a-sweep --seed 1 --seconds 12 --trace 0
//
// See perfbench/NOTES.md for the workloads, the metric definitions and the
// baseline numbers.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the user-visible metrics, measured with tracing off. Every
// workload reports every one (NOTES.md defines each per workload).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"alloc_kb_per_round", "KiB", "lower", 0.1},
	{"peak_rss_mb", "MiB", "lower", 0.2},
	{"warm_p50_ms", "ms", "lower", 0.25},
	{"warm_p90_ms", "ms", "lower", 0.25},
	{"cold_p50_ms", "ms", "lower", 0.25},
	{"cold_p90_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 (NOTES.md lists which workload measures which layer).
var perLayer = []metricSpec{
	{"dsp.fracdelay_ns", "ns", "lower", 0},
	{"dsp.fracdelay_allocs", "count", "lower", 0},
	{"dsp.fracdelay_bytes", "B", "lower", 0},
	{"dsp.fracdelay_bytes_moved", "B", "lower", 0},
	{"dsp.xcorr_ns", "ns", "lower", 0},
	{"dsp.xcorr_allocs", "count", "lower", 0},
	{"dsp.xcorr_bytes", "B", "lower", 0},
	{"dsp.xcorr_bytes_moved", "B", "lower", 0},
	{"dsp.prefix_ns", "ns", "lower", 0},
	{"dsp.prefix_allocs", "count", "lower", 0},
	{"dsp.prefix_bytes", "B", "lower", 0},
	{"dsp.prefix_bytes_moved", "B", "lower", 0},
	{"channel.awgn_ns", "ns", "lower", 0},
	{"channel.awgn_allocs", "count", "lower", 0},
	{"channel.awgn_bytes", "B", "lower", 0},
	{"channel.awgn_bytes_moved", "B", "lower", 0},
	{"sim.stage.build_ns", "ns", "lower", 0},
	{"sim.stage.mix_ns", "ns", "lower", 0},
	{"sim.stage.decode_ns", "ns", "lower", 0},
	{"sim.stage.build_share", "ratio", "lower", 0},
	{"sim.stage.mix_share", "ratio", "lower", 0},
	{"sim.stage.decode_share", "ratio", "lower", 0},
	{"sim.point_p50_ms", "ms", "lower", 0},
	{"sim.point_max_ms", "ms", "lower", 0},
	{"sim.engine_new_ns", "ns", "lower", 0},
	{"sim.rounds_per_s_w1", "1/s", "higher", 0},
	{"sim.worker_speedup", "ratio", "higher", 0},
	{"rx.phase.sync_ns", "ns", "lower", 0},
	{"rx.phase.detect_ns", "ns", "lower", 0},
	{"rx.phase.decode_ns", "ns", "lower", 0},
	{"core.cache_hit_ratio", "ratio", "higher", 0},
	{"core.cache_hits", "count", "higher", 0},
	{"core.cache_misses", "count", "lower", 0},
	{"core.store_get_ns", "ns", "lower", 0},
	{"core.store_put_ns", "ns", "lower", 0},
	{"core.runner_busy_ms", "ms", "lower", 0},
	{"batch.queue_wait_p50_ms", "ms", "lower", 0},
	{"batch.queue_wait_p90_ms", "ms", "lower", 0},
	{"batch.points_per_flush", "count", "higher", 0},
	{"batch.timer_flush_share", "ratio", "lower", 0},
	{"shard.spawn_ms", "ms", "lower", 0},
	{"shard.attempt_ms", "ms", "lower", 0},
	{"shard.wire_ms", "ms", "lower", 0},
	{"shard.retries", "count", "lower", 0},
	{"shard.journal_bytes", "B", "lower", 0},
	{"http.overhead_ms", "ms", "lower", 0},
	{"obs.trace_overhead", "ratio", "higher", 0},
}

// workload is one benchmark workload.
type workload struct {
	Name string
	Why  string
	Run  func(cfg runConfig) (*outcome, error)
}

// workloads is the benchmark's workload table, in BENCHMARK.json order.
var workloads = []workload{
	{"fig8a-sweep", "Fig. 8(a) grid, Gold-31, 2-4 tags x 9 distances, in-process campaigns back to back: the mix-heavy path", runFig8a},
	{"dense-sic", "Gold-127, 6-10 tags x 3 distances, SIC on, in-process campaigns: the receiver-heavy path", runDenseSIC},
	{"serve-mixed", "cbmad with default flags, open-loop Poisson jobs, every other one a resubmission: HTTP, batch queue and cache", runServeMixed},
	{"serve-sharded", "the serve-mixed job stream against cbmad -shards 2 -journal-dir: subprocess spawn, shard wire, journal", runServeSharded},
}

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Cbmad is the daemon binary the serve workloads spawn; Work is a
	// scratch directory inside the checkout.
	Cbmad string
	Work  string
}

// outcome is what a workload reports.
type outcome struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Meta      map[string]any
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Meta: map[string]any{}}
}

// fail records n failed operations and why.
func (o *outcome) fail(n int, format string, args ...any) {
	o.Failed += n
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	errs, _ := o.Meta["failures"].([]string)
	if len(errs) < 20 {
		o.Meta["failures"] = append(errs, msg)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the final line from an outcome, keeping exactly the
// metrics of the requested mode.
func result(o *outcome, trace bool) (resultLine, error) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	r := resultLine{
		Correct:   o.Failed == 0 && o.Attempted > 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := o.Metrics[s.Name]
		if !ok {
			return r, fmt.Errorf("workload did not report %s", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return r, nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workload", "", "workload to run")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 12, "measured time")
		trace     = flag.Int("trace", 0, "1: print the per-layer metrics of a traced run")
		cbmad     = flag.String("cbmad", "", "cbmad binary for the serve workloads")
		work      = flag.String("work", ".bench_build/work", "scratch directory")
		calibrate = flag.Int("calibrate", 0, "compute workloads: print the FER reference from this many campaigns and exit")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if *calibrate > 0 {
		return calibrateFER(w.Name, *seed, *calibrate)
	}
	workDir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.Name, *seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Cbmad: *cbmad, Work: workDir}
	started := time.Now()
	o, err := w.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	o.Meta["workload"] = w.Name
	o.Meta["seed"] = *seed
	o.Meta["seconds"] = *seconds
	o.Meta["trace"] = cfg.Trace
	o.Meta["cores"] = runtime.NumCPU()
	o.Meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.Meta["go_version"] = runtime.Version()
	o.Meta["wall_s"] = time.Since(started).Seconds()
	o.Meta["error_rate"] = ratio(float64(o.Failed), float64(o.Attempted))
	r, err := result(o, cfg.Trace)
	if err != nil {
		return err
	}
	meta, err := json.Marshal(o.Meta)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n%s\n", meta, line)
	return nil
}

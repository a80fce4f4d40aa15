// Command cbmabench regenerates every table and figure of the paper's
// evaluation (plus the DESIGN.md ablations) from the simulator.
//
//	cbmabench                  # run the full suite at default fidelity
//	cbmabench -exp fig9b       # one experiment
//	cbmabench -quick           # smoke-run scale
//	cbmabench -list            # show the registry
//	cbmabench -packets 500 -groups 50 -trials 1000
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cbma/internal/obs"
	"cbma/internal/paperbench"
)

func main() {
	if err := run(os.Args[1:], time.Now); err != nil {
		fmt.Fprintln(os.Stderr, "cbmabench:", err)
		os.Exit(1)
	}
}

// run drives the experiment registry. The clock is injected so the
// command's only wall-clock dependency sits in main, where nodeterm's
// cmd/ exemption (and tests) can see it explicitly.
func run(args []string, now func() time.Time) error {
	fs := flag.NewFlagSet("cbmabench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment ID to run, or 'all'")
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		quick   = fs.Bool("quick", false, "smoke-run workload scale")
		seed    = fs.Int64("seed", 1, "random seed")
		packets = fs.Int("packets", 0, "packets per sweep point (0 = scale default)")
		groups  = fs.Int("groups", 0, "random placement groups (0 = scale default)")
		trials  = fs.Int("trials", 0, "user-detection trials (0 = scale default)")
		obsOn   = fs.Bool("obs", false, "enable telemetry: stage timings, JSONL events, live progress and a run manifest under -obs-out")
		obsOut  = fs.String("obs-out", "obs", "directory for events.jsonl and manifest.json (with -obs)")
		pprof   = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range paperbench.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return nil
	}
	opts := paperbench.DefaultOptions()
	if *quick {
		opts = paperbench.Quick()
	}
	opts.Seed = *seed
	// Zero keeps the scale default; a negative count is an error rather
	// than a silent fallback.
	for _, c := range []struct {
		flag string
		v    int
		dst  *int
	}{{"packets", *packets, &opts.Packets}, {"groups", *groups, &opts.Groups}, {"trials", *trials, &opts.Trials}} {
		if c.v < 0 {
			return fmt.Errorf("-%s must not be negative, got %d", c.flag, c.v)
		}
		if c.v > 0 {
			*c.dst = c.v
		}
	}

	// Telemetry composition root: the injected clock (main passes time.Now)
	// drives spans, ETAs and event timestamps; experiments never read time
	// themselves. With -obs each campaign streams events to
	// <obs-out>/events.jsonl and the run leaves a manifest whose per-stage
	// breakdown makes BENCH_*.json entries reproducible artifacts.
	var (
		sink *obs.Sink
		o    *obs.Observer
	)
	if *obsOn || *pprof != "" {
		if *obsOn {
			s, err := obs.FileSink(*obsOut)
			if err != nil {
				return err
			}
			sink = s
		}
		o = obs.New(obs.Config{
			Clock:    obs.Clock(now),
			Sink:     sink,
			Progress: obs.NewProgress(os.Stderr, obs.Clock(now)),
		})
		opts.Obs = o
	}
	if *pprof != "" {
		bound, err := obs.ServeDebug(*pprof, o.Registry())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cbmabench: debug endpoint at http://%s/debug/pprof/ (registry at /debug/vars)\n", bound)
	}

	// The base-scenario content hash ties this run to cbmasim output and
	// cbmad cache entries built from the same canonical configuration.
	baseHash := ""
	if h, herr := opts.BaseScenario().Hash(); herr == nil {
		baseHash = h
		fmt.Printf("base scenario hash: %s\n\n", h)
	}

	var selected []paperbench.Experiment
	if *exp == "all" {
		selected = paperbench.All()
	} else {
		e, ok := paperbench.Find(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *exp)
		}
		selected = []paperbench.Experiment{e}
	}
	ran := make([]string, 0, len(selected))
	for _, e := range selected {
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		start := now()
		if err := e.Run(os.Stdout, opts); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("    (%.1fs)\n\n", now().Sub(start).Seconds())
		ran = append(ran, e.ID)
	}
	if o == nil {
		return nil
	}
	err := sink.Close()
	if !*obsOn {
		return err
	}
	man := o.Manifest("cbmabench")
	man.Seed = opts.Seed
	man.Config = map[string]any{"experiments": ran, "options": opts}
	man.ScenarioHash = baseHash
	if werr := obs.WriteManifest(filepath.Join(*obsOut, obs.ManifestFile), man); err == nil {
		err = werr
	}
	return err
}

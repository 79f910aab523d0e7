// Command mecbench regenerates the tables and figures of the paper's
// evaluation (Section V), plus the validation and ablation studies that go
// beyond it.
//
// Usage:
//
//	mecbench -all                       # every artifact, paper sweeps
//	mecbench -experiment fig2a          # one artifact
//	mecbench -list                      # show what is available
//	mecbench -experiment fig5a -trials 5 -seed 7
//	mecbench -all -csv out/             # also write one CSV per figure
//	mecbench -all -quick                # endpoints only (smoke test)
//	mecbench -all -quick -metrics run.json -check budgets.json
//
// With -metrics, solver and simulator counters from deep inside the
// experiment harness are collected into a run manifest (the experiments
// record to the process-wide obs registry, so nothing needs threading).
// With -check, the final metrics are compared against a budget file and
// the command exits non-zero on any violation — a cheap performance
// regression gate for CI:
//
//	{"budgets": [
//	  {"metric": "lp.price_evaluations", "max": 500000},
//	  {"metric": "sim.events", "min": 1},
//	  {"metric": "wall_seconds", "max": 300}
//	]}
//
// A budget metric names a counter or gauge, the special "wall_seconds" /
// "cpu_seconds" clocks, or a histogram with a .count/.sum/.mean suffix.
// Budget files are validated up front (shared with mecwc via
// internal/workload): malformed JSON, unknown metric names, or invalid
// bounds exit with code 2 and a structured JSON record on stderr, while
// a budget violation in a completed run exits 1 — after the -metrics,
// -trace, and -obs-snapshots outputs have all been flushed, so a failed
// gate still leaves its evidence behind.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dsmec"
	"dsmec/internal/obs"
	"dsmec/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mecbench:", err)
		var be *workload.BudgetError
		if errors.As(err, &be) {
			be.WriteJSON(os.Stderr)
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mecbench", flag.ContinueOnError)
	var (
		expID       = fs.String("experiment", "", "experiment id to run (see -list)")
		all         = fs.Bool("all", false, "run every experiment")
		list        = fs.Bool("list", false, "list available experiments")
		seed        = fs.Int64("seed", 1, "root random seed")
		trials      = fs.Int("trials", 3, "seeded repetitions averaged per point")
		quick       = fs.Bool("quick", false, "sweep endpoints only")
		parallel    = fs.Int("parallel", 0, "worker count for sweep points and trials (0 = GOMAXPROCS, 1 = sequential); results are identical for any value")
		csvDir      = fs.String("csv", "", "directory to write per-figure CSV files")
		metricsPath = fs.String("metrics", "", "write a run manifest (metrics + environment) to this JSON file")
		tracePath   = fs.String("trace", "", "write a Chrome trace_event JSON to this file")
		checkPath   = fs.String("check", "", "budget JSON file; exit non-zero when a final metric is out of budget")
		faultSeed   = fs.Int64("fault-seed", 1, "root seed for fault plans in fault-injecting experiments (robustness)")
		obsAddr     = fs.String("obs-addr", "", "serve live /metrics, /metrics.json, /manifest, and /debug/pprof over HTTP on this address for the duration of the run")
		snapPath    = fs.String("obs-snapshots", "", "append timestamped registry snapshots (JSON Lines) to this file while experiments run")
		snapEvery   = fs.Duration("obs-snapshot-interval", time.Second, "interval between -obs-snapshots records")
		logLevel    = fs.String("log-level", "info", "structured log level on stderr: debug, info, warn, error, or off")
		logFormat   = fs.String("log-format", "text", "structured log encoding: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	obs.SetGlobalLogger(logger)

	if *list {
		for _, d := range dsmec.Experiments() {
			fmt.Fprintf(stdout, "%-18s %s\n", d.ID, d.Title)
		}
		return nil
	}

	var defs []dsmec.Experiment
	switch {
	case *all:
		defs = dsmec.Experiments()
	case *expID != "":
		d, ok := dsmec.ExperimentByID(*expID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *expID)
		}
		defs = []dsmec.Experiment{d}
	default:
		return fmt.Errorf("nothing to do: pass -experiment <id>, -all, or -list")
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	// Load budgets before any work so a malformed file fails fast (with
	// exit code 2 via the *BudgetError mapping in main).
	var budgets []workload.Budget
	if *checkPath != "" {
		var err error
		budgets, err = workload.LoadBudgets(*checkPath)
		if err != nil {
			return err
		}
	}

	// The experiment harness builds its options internally, so metrics are
	// collected through the process-wide registry rather than threading an
	// Instruments value through every definition.
	var (
		reg      *obs.Registry
		trace    *obs.Trace
		manifest *obs.Manifest
	)
	closeSnapshotter := func() error { return nil }
	if *metricsPath != "" || *tracePath != "" || *checkPath != "" || *obsAddr != "" || *snapPath != "" {
		reg = obs.NewRegistry()
		obs.SetGlobal(reg)
		defer obs.SetGlobal(nil)
		manifest = obs.NewManifest("mecbench", args)
		manifest.SetSeed(*seed)
		if *tracePath != "" {
			trace = obs.NewTrace("mecbench")
		}
		if *obsAddr != "" {
			srv, err := obs.NewServer(*obsAddr, reg, manifest)
			if err != nil {
				return err
			}
			defer srv.Close()
			logger.Info("obs server listening", "url", srv.URL())
		}
		if *snapPath != "" {
			snap, err := obs.StartSnapshotter(*snapPath, *snapEvery, reg)
			if err != nil {
				return err
			}
			// Closed explicitly before the budget verdict so a failing
			// -check still leaves a complete snapshot file; the guard keeps
			// the deferred close from closing twice (Snapshotter.Close is
			// not idempotent).
			closed := false
			closeSnapshotter = func() error {
				if closed {
					return nil
				}
				closed = true
				return snap.Close()
			}
			defer closeSnapshotter()
		}
	}

	opts := dsmec.ExperimentOptions{Seed: *seed, Trials: *trials, Quick: *quick, Parallelism: *parallel, FaultSeed: *faultSeed}
	expSeconds := reg.Histogram("bench.experiment_seconds", obs.TimeBuckets)
	for _, d := range defs {
		span := trace.StartSpan("experiment:" + d.ID)
		start := time.Now()
		fig, err := d.Run(opts)
		elapsed := time.Since(start)
		span.Annotate("seconds", elapsed.Seconds())
		span.End()
		if err != nil {
			return fmt.Errorf("%s: %w", d.ID, err)
		}
		reg.Counter("bench.experiments").Inc()
		expSeconds.Observe(elapsed.Seconds())
		if _, err := fig.WriteTo(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(%s in %v)\n\n", d.ID, elapsed.Round(time.Millisecond))

		if *csvDir != "" {
			path := filepath.Join(*csvDir, d.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := fig.CSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}

	if manifest == nil {
		return nil
	}
	manifest.Finish(reg)
	if *metricsPath != "" {
		if err := manifest.WriteFile(*metricsPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "run manifest: %s\n", *metricsPath)
		if _, err := obs.SummaryTable(manifest.Metrics).WriteTo(stdout); err != nil {
			return err
		}
	}
	if *tracePath != "" {
		if err := trace.WriteFile(*tracePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %s (open in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
	}
	if *checkPath != "" {
		// Flush the snapshot stream before the verdict: a failed gate must
		// still leave complete observability artifacts behind.
		if err := closeSnapshotter(); err != nil {
			return err
		}
		if vs := workload.CheckBudgets(budgets, workload.ManifestResolver(manifest), stdout); len(vs) > 0 {
			return fmt.Errorf("%d budget violation(s)", len(vs))
		}
	}
	return nil
}

// Command mecsim runs one data-shared MEC scenario end to end: it
// generates a system and a task population, assigns the tasks with every
// algorithm, evaluates the analytic Section II cost model, and replays the
// LP-HTA assignment in the discrete-event simulator.
//
// Usage:
//
//	mecsim -tasks 200 -devices 50 -stations 5 -input 3000
//	mecsim -divisible -tasks 200          # DTA pipeline on divisible tasks
//	mecsim -seed 7 -tasks 450 -sim=false  # skip the simulator replay
//	mecsim -load scenario.json            # replay a mecgen-saved scenario
//	mecsim -tasks 100 -metrics run.json -trace run.trace.json
//
// With -metrics, the run writes a JSON manifest (seed, scenario hash,
// toolchain, wall/CPU time, every counter/gauge/histogram) and prints a
// metric summary table. With -trace, it writes a Chrome trace_event JSON
// viewable in chrome://tracing or https://ui.perfetto.dev.
//
// Exit codes: 0 success, 1 runtime failure, 2 scenario parse failure
// (with a structured JSON error on stderr, so wrappers and budget checks
// can distinguish malformed input from real regressions).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dsmec"
	"dsmec/internal/obs"
	"dsmec/internal/scenarioio"
	"dsmec/internal/texttable"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	var pe *scenarioParseError
	if errors.As(err, &pe) {
		// Structured, machine-readable parse failure: budget-check
		// wrappers must be able to tell "bad input" from "regression".
		_ = json.NewEncoder(os.Stderr).Encode(map[string]string{
			"error":  "scenario_parse",
			"path":   pe.Path,
			"detail": pe.Err.Error(),
		})
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "mecsim:", err)
	os.Exit(1)
}

// scenarioParseError marks a malformed scenario document.
type scenarioParseError struct {
	Path string
	Err  error
}

func (e *scenarioParseError) Error() string {
	return fmt.Sprintf("parsing scenario %s: %v", e.Path, e.Err)
}

func (e *scenarioParseError) Unwrap() error { return e.Err }

// instrumentation bundles the optional observability outputs of one run.
type instrumentation struct {
	reg      *obs.Registry
	trace    *obs.Trace
	root     *obs.Span
	manifest *obs.Manifest
	server   *obs.Server
	snap     *obs.Snapshotter

	metricsPath, tracePath string
}

// testHookObsServer, when set by a test, is called synchronously with the
// exposition server's base URL after it starts listening, so tests can
// probe the live endpoints mid-run.
var testHookObsServer func(url string)

// enabled reports whether any observability flag was set.
func (in *instrumentation) enabled() bool { return in != nil && in.reg != nil }

// ins returns the Instruments value threaded through the pipeline.
func (in *instrumentation) ins() obs.Instruments {
	if !in.enabled() {
		return obs.Instruments{}
	}
	return obs.Instruments{Metrics: in.reg, Span: in.root}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mecsim", flag.ContinueOnError)
	var (
		seed        = fs.Int64("seed", 1, "root random seed")
		devices     = fs.Int("devices", 50, "number of mobile devices")
		stations    = fs.Int("stations", 5, "number of base stations")
		tasks       = fs.Int("tasks", 100, "number of tasks")
		inputKB     = fs.Int("input", 3000, "maximum task input size (kB)")
		divisible   = fs.Bool("divisible", false, "generate divisible tasks and run the DTA pipeline")
		simulate    = fs.Bool("sim", true, "replay the LP-HTA assignment in the discrete-event simulator")
		load        = fs.String("load", "", "load a scenario JSON document instead of generating one")
		parallel    = fs.Int("parallel", 0, "LP-HTA cluster worker count (0 = GOMAXPROCS, 1 = sequential); results are identical for any value")
		metricsPath = fs.String("metrics", "", "write a run manifest (metrics + environment) to this JSON file")
		tracePath   = fs.String("trace", "", "write a Chrome trace_event JSON to this file")
		faults      = fs.Bool("faults", false, "inject seeded faults (station outages, device churn, link degradation) into the simulator replay")
		faultSeed   = fs.Int64("fault-seed", 1, "root seed for the generated fault plan (ignored when -load embeds one)")
		obsAddr     = fs.String("obs-addr", "", "serve live /metrics, /metrics.json, /manifest, and /debug/pprof over HTTP on this address for the duration of the run")
		snapPath    = fs.String("obs-snapshots", "", "append timestamped registry snapshots (JSON Lines) to this file while the run progresses")
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

	var instr *instrumentation
	if *metricsPath != "" || *tracePath != "" || *obsAddr != "" || *snapPath != "" {
		instr = &instrumentation{
			reg:         obs.NewRegistry(),
			manifest:    obs.NewManifest("mecsim", args),
			metricsPath: *metricsPath,
			tracePath:   *tracePath,
		}
		instr.manifest.SetSeed(*seed)
		if *tracePath != "" {
			instr.trace = obs.NewTrace("mecsim")
			instr.root = instr.trace.StartSpan("mecsim")
		}
		if *obsAddr != "" {
			srv, err := obs.NewServer(*obsAddr, instr.reg, instr.manifest)
			if err != nil {
				return err
			}
			instr.server = srv
			logger.Info("obs server listening", "url", srv.URL())
			if testHookObsServer != nil {
				testHookObsServer(srv.URL())
			}
		}
		if *snapPath != "" {
			snap, err := obs.StartSnapshotter(*snapPath, *snapEvery, instr.reg)
			if err != nil {
				return err
			}
			instr.snap = snap
		}
	}

	runErr := runScenario(instr, *load, *seed, *devices, *stations, *tasks, *inputKB,
		*parallel, *divisible, *simulate, *faults, *faultSeed, stdout)
	if instr.enabled() {
		if err := finishInstrumentation(instr, stdout); err != nil && runErr == nil {
			runErr = err
		}
	}
	return runErr
}

// runScenario executes the selected pipeline under the (possibly nil)
// instrumentation bundle.
func runScenario(instr *instrumentation, load string, seed int64,
	devices, stations, tasks, inputKB, parallel int,
	divisible, simulate, faults bool, faultSeed int64, stdout io.Writer) error {
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return err
		}
		defer f.Close()
		// Stream the document through the decoder instead of slurping it:
		// a million-device scenario never exists in memory as one []byte.
		// The fingerprint accumulates through a tee on the same pass.
		var r io.Reader = bufio.NewReaderSize(f, 1<<20)
		var h *obs.StreamHash
		if instr.enabled() {
			h = obs.NewStreamHash()
			r = io.TeeReader(r, h)
			instr.manifest.Annotate("scenario_file", load)
		}
		sc, fp, err := scenarioio.DecodeWithFaults(r)
		if err != nil {
			return &scenarioParseError{Path: load, Err: err}
		}
		if h != nil {
			// Drain past the closing brace (trailing newline) so the
			// digest matches HashBytes over the whole file.
			_, _ = io.Copy(io.Discard, r)
			instr.manifest.SetScenarioHash(h.Sum())
		}
		if sc.Placement != nil {
			if faults {
				return fmt.Errorf("fault injection applies to the simulator replay; the divisible pipeline has none")
			}
			return runDivisibleScenario(sc, instr, stdout)
		}
		if !faults {
			fp = nil
		} else if fp.Empty() {
			// No plan embedded in the document: draw one for its topology.
			fp = dsmec.GenerateFaultPlan(dsmec.NewSeed(faultSeed), sc.System, dsmec.DefaultFaultParams())
		}
		return runHolisticScenario(sc, parallel, simulate, fp, instr, stdout)
	}

	params := dsmec.WorkloadParams{
		NumDevices:  devices,
		NumStations: stations,
		NumTasks:    tasks,
		MaxInput:    dsmec.ByteSize(inputKB) * dsmec.Kilobyte,
	}
	if instr.enabled() {
		instr.manifest.SetScenarioHash(obs.HashJSON(struct {
			Seed      int64
			Params    dsmec.WorkloadParams
			Divisible bool
		}{seed, params, divisible}))
	}
	src := dsmec.NewSeed(seed)

	gspan := instr.ins().Span.Child("generate")
	var (
		sc  *dsmec.Scenario
		err error
	)
	if divisible {
		sc, err = dsmec.GenerateDivisible(src, params)
	} else {
		sc, err = dsmec.GenerateHolistic(src, params)
	}
	gspan.End()
	if err != nil {
		return err
	}
	if divisible {
		if faults {
			return fmt.Errorf("fault injection applies to the simulator replay; the divisible pipeline has none")
		}
		return runDivisibleScenario(sc, instr, stdout)
	}
	var fp *dsmec.FaultPlan
	if faults {
		fp = dsmec.GenerateFaultPlan(dsmec.NewSeed(faultSeed), sc.System, dsmec.DefaultFaultParams())
	}
	return runHolisticScenario(sc, parallel, simulate, fp, instr, stdout)
}

func runHolisticScenario(sc *dsmec.Scenario, parallel int,
	simulate bool, fp *dsmec.FaultPlan, instr *instrumentation, stdout io.Writer) error {
	ins := instr.ins()
	fmt.Fprintf(stdout, "scenario: %d devices, %d stations, %d holistic tasks\n\n",
		sc.System.NumDevices(), sc.System.NumStations(), sc.Tasks.Len())

	tb := texttable.New("method", "energy (J)", "mean latency (s)", "unsatisfied", "device/station/cloud/cancel")

	lph, err := dsmec.LPHTA(sc.Model, sc.Tasks, &dsmec.LPHTAOptions{Obs: ins, Parallelism: parallel})
	if err != nil {
		return err
	}
	if err := dsmec.CheckFeasible(sc.Model, sc.Tasks, lph.Assignment); err != nil {
		return fmt.Errorf("LP-HTA produced an infeasible assignment: %w", err)
	}
	if err := addRow(tb, "LP-HTA", sc, lph.Assignment); err != nil {
		return err
	}

	bspan := ins.Span.Child("baselines")
	hgos, err := dsmec.HGOS(sc.Model, sc.Tasks)
	if err != nil {
		return err
	}
	if err := addRow(tb, "HGOS", sc, hgos); err != nil {
		return err
	}
	offload, err := dsmec.AllOffload(sc.Model, sc.Tasks)
	if err != nil {
		return err
	}
	bspan.End()
	if err := addRow(tb, "AllOffload", sc, offload); err != nil {
		return err
	}
	if err := addRow(tb, "AllToC", sc, dsmec.AllToC(sc.Tasks)); err != nil {
		return err
	}
	if _, err := tb.WriteTo(stdout); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "\nLP-HTA internals: LP optimum %.1f J; "+
		"%d fractional tasks; Δ = %v; ratio bound ≤ %.3f\n",
		float64(lph.LPObjective), lph.FractionalTasks,
		lph.Delta, lph.RatioBoundEstimate())

	if !simulate {
		return nil
	}
	simRes, err := dsmec.Simulate(sc.Model, sc.Tasks, lph.Assignment,
		dsmec.SimConfig{Obs: ins, Faults: fp})
	if err != nil {
		return err
	}
	analytic, err := dsmec.Evaluate(sc.Model, sc.Tasks, lph.Assignment)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\ndiscrete-event replay of LP-HTA: mean latency %v (analytic %v), "+
		"makespan %v, %d deadline misses under queueing\n",
		simRes.MeanLatency(), analytic.MeanLatency(), simRes.Makespan, simRes.DeadlineViolations)
	if fs := simRes.Faults; fs != nil {
		fmt.Fprintf(stdout, "\nfault injection: %d station outages, %d device departures, %d link degradations\n",
			fs.StationOutages, fs.DeviceDepartures, fs.LinkDegradations)
		fmt.Fprintf(stdout, "recovery: %d attempts (%d failed), %d retries, %d reassignments, %d tasks lost; "+
			"wasted energy %v; misses %d fault-attributed / %d capacity\n",
			fs.Attempts, fs.FailedAttempts, fs.Retries, fs.Reassignments, fs.Lost,
			fs.WastedEnergy, fs.FaultMisses, fs.CapacityMisses)
	}
	return nil
}

func runDivisibleScenario(sc *dsmec.Scenario, instr *instrumentation, stdout io.Writer) error {
	ins := instr.ins()
	fmt.Fprintf(stdout, "scenario: %d devices, %d stations, %d divisible tasks over %d blocks of %v\n\n",
		sc.System.NumDevices(), sc.System.NumStations(), sc.Tasks.Len(),
		sc.Placement.NumBlocks(), sc.Placement.BlockSize())

	hol, err := dsmec.LPHTA(sc.Model, sc.Tasks, &dsmec.LPHTAOptions{Obs: ins})
	if err != nil {
		return err
	}
	hm, err := dsmec.Evaluate(sc.Model, sc.Tasks, hol.Assignment)
	if err != nil {
		return err
	}

	tb := texttable.New("method", "energy (J)", "processing time (s)", "involved devices", "new tasks")
	tb.AddRowf("LP-HTA (holistic)", fmt.Sprintf("%.1f", hm.TotalEnergy.Joules()), "-", "-", "-")
	for _, goal := range []dsmec.Goal{dsmec.GoalWorkload, dsmec.GoalNumber} {
		res, err := dsmec.DTA(sc.Model, sc.Tasks, sc.Placement, dsmec.DTAOptions{Goal: goal, Obs: ins})
		if err != nil {
			return err
		}
		tb.AddRowf(goal.String(),
			fmt.Sprintf("%.1f", res.Metrics.TotalEnergy.Joules()),
			fmt.Sprintf("%.2f", res.Metrics.ProcessingTime.Seconds()),
			res.Metrics.InvolvedDevices,
			res.Metrics.NewTasks)
	}
	_, err = tb.WriteTo(stdout)
	return err
}

func addRow(tb *texttable.Table, name string, sc *dsmec.Scenario, a *dsmec.Assignment) error {
	m, err := dsmec.Evaluate(sc.Model, sc.Tasks, a)
	if err != nil {
		return err
	}
	tb.AddRowf(name,
		fmt.Sprintf("%.1f", m.TotalEnergy.Joules()),
		fmt.Sprintf("%.3f", m.MeanLatency().Seconds()),
		fmt.Sprintf("%.1f%%", 100*m.UnsatisfiedRate()),
		fmt.Sprintf("%d/%d/%d/%d",
			m.CountByLevel[dsmec.OnDevice], m.CountByLevel[dsmec.OnStation],
			m.CountByLevel[dsmec.OnCloud], m.CountByLevel[dsmec.Cancelled]))
	return nil
}

// finishInstrumentation stops the live endpoints, closes the trace,
// finalizes the manifest, writes the requested files, and prints the
// metric summary table.
func finishInstrumentation(instr *instrumentation, stdout io.Writer) error {
	if err := instr.snap.Close(); err != nil {
		return err
	}
	if err := instr.server.Close(); err != nil {
		return err
	}
	instr.root.End()
	instr.manifest.Finish(instr.reg)
	if instr.metricsPath != "" {
		if err := instr.manifest.WriteFile(instr.metricsPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nrun manifest: %s\n", instr.metricsPath)
		if _, err := obs.SummaryTable(instr.manifest.Metrics).WriteTo(stdout); err != nil {
			return err
		}
	}
	if instr.tracePath != "" {
		if err := instr.trace.WriteFile(instr.tracePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ntrace: %s (open in chrome://tracing or ui.perfetto.dev)\n", instr.tracePath)
	}
	return nil
}

// Command mecperf records the repository's performance baseline. It runs
// the same instances as the testing.B benchmarks (via internal/perfbench)
// under testing.Benchmark and writes the results, plus the machine
// context needed to interpret them, to a JSON file — by convention
// BENCH_lphta.json at the repository root (see docs/PERFORMANCE.md).
//
// Usage:
//
//	mecperf                      # write BENCH_lphta.json in the cwd
//	mecperf -out perf/today.json
//	mecperf -quick               # smaller instances, for smoke tests
//	mecperf -out fresh.json -against BENCH_lphta.json -tolerance 0.25
//
// With -against, the freshly recorded results are compared to a committed
// baseline: allocs/op and B/op must not regress beyond the tolerance
// (they are deterministic and machine-independent, so CI gates on them),
// while ns/op differences are printed as advisory only — wall-clock on
// shared runners is too noisy to gate a build on. The command exits
// non-zero on any gated regression.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"dsmec/internal/core"
	"dsmec/internal/experiment"
	"dsmec/internal/obs"
	"dsmec/internal/perfbench"
	"dsmec/internal/scenarioio"
	"dsmec/internal/sim"
)

// benchResult is one recorded measurement.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// sweepResult compares the sequential and parallel experiment pipeline on
// wall-clock time; the outputs themselves are byte-identical.
type sweepResult struct {
	Experiment        string  `json:"experiment"`
	Trials            int     `json:"trials"`
	Quick             bool    `json:"quick"`
	SequentialSeconds float64 `json:"sequential_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	ParallelWorkers   int     `json:"parallel_workers"`
	Speedup           float64 `json:"speedup"`
}

// baseline is the document written to BENCH_lphta.json.
type baseline struct {
	GeneratedBy string        `json:"generated_by"`
	Date        string        `json:"date"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	NumCPU      int           `json:"num_cpu"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Benchmarks  []benchResult `json:"benchmarks"`
	Sweep       sweepResult   `json:"sweep"`
	Notes       []string      `json:"notes"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mecperf:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out       = flag.String("out", "BENCH_lphta.json", "output JSON path")
		quick     = flag.Bool("quick", false, "smaller instances (smoke test)")
		against   = flag.String("against", "", "baseline JSON to compare against; gated metrics exit non-zero on regression")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional regression for gated metrics with -against")
		obsAddr   = flag.String("obs-addr", "", "serve live /metrics and /debug/pprof over HTTP on this address while benchmarks run (enables the global registry, which perturbs alloc counts — do not gate such a run)")
		logLevel  = flag.String("log-level", "info", "structured log level on stderr: debug, info, warn, error, or off")
		logFormat = flag.String("log-format", "text", "structured log encoding: text or json")
	)
	flag.Parse()
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	obs.SetGlobalLogger(logger)
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		obs.SetGlobal(reg)
		defer obs.SetGlobal(nil)
		srv, err := obs.NewServer(*obsAddr, reg, obs.NewManifest("mecperf", os.Args[1:]))
		if err != nil {
			return err
		}
		defer srv.Close()
		logger.Info("obs server listening", "url", srv.URL())
	}

	htaTasks, simTasks := 450, 450
	if *quick {
		htaTasks, simTasks = 100, 100
	}

	doc := baseline{
		GeneratedBy: "mecperf",
		Date:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Notes: []string{
			"lphta compares Parallelism=1 vs one worker per core on the same scenario; outputs are byte-identical",
			"scenario_decode and scenario_encode read and write the canonical scenario document through the hand-written scenarioio codec (byte-scanning decoder, direct encoder)",
			"the stations=N lphta row uses a production-shaped topology (many stations, moderate clusters)",
			"lphta rows solve each cluster relaxation with the structured P2 solver",
			"sweep compares mecbench-style experiment wall-clock, sequential vs parallel pipeline: each side repeats until it has run for at least 1 s and records its median run",
			"parallel speedups require multiple cores; on a single-core machine they measure pool overhead only",
		},
	}

	record := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		doc.Benchmarks = append(doc.Benchmarks, benchResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Printf("%-40s %12.0f ns/op %10d B/op %8d allocs/op\n",
			name, doc.Benchmarks[len(doc.Benchmarks)-1].NsPerOp,
			r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	// LP-HTA: sequential vs one worker per core.
	sc, err := perfbench.HolisticScenario(htaTasks)
	if err != nil {
		return err
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		record(fmt.Sprintf("lphta/tasks=%d/workers=%d", htaTasks, workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.LPHTA(sc.Model, sc.Tasks, &core.LPHTAOptions{Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// DES engine: one full replay of the LP-HTA assignment.
	simSc, err := perfbench.HolisticScenario(simTasks)
	if err != nil {
		return err
	}
	assign, err := perfbench.Assign(simSc.Model, simSc.Tasks)
	if err != nil {
		return err
	}
	record(fmt.Sprintf("sim_engine/tasks=%d", simTasks), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(simSc.Model, simSc.Tasks, assign, sim.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Scenario I/O: the codec over the canonical document, both ways.
	docBytes, err := perfbench.ScenarioDocument(simTasks)
	if err != nil {
		return err
	}
	record(fmt.Sprintf("scenario_decode/tasks=%d", simTasks), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scenarioio.Decode(bytes.NewReader(docBytes)); err != nil {
				b.Fatal(err)
			}
		}
	})
	record(fmt.Sprintf("scenario_encode/tasks=%d", simTasks), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := scenarioio.Encode(io.Discard, simSc); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Large-scale LP-HTA: production-shaped topology — many stations, each
	// carrying a moderate cluster — rather than one giant cluster.
	largeDev, largeSt, largeTasks := 500, 50, 3000
	if *quick {
		largeDev, largeSt, largeTasks = 100, 10, 300
	}
	largeSc, err := perfbench.ScaledScenario(largeDev, largeSt, largeTasks)
	if err != nil {
		return err
	}
	record(fmt.Sprintf("lphta/tasks=%d/stations=%d", largeTasks, largeSt), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.LPHTA(largeSc.Model, largeSc.Tasks, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Experiment sweep wall-clock: sequential vs parallel pipeline.
	trials := 3
	if *quick {
		trials = 1
	}
	// One sweep runs for a fraction of a second, too short to time
	// alone: each side repeats until it has run for sweepMinSeconds and
	// reports its median run.
	const sweepMinSeconds = 1.0
	sweep := func(parallelism int) (float64, error) {
		var runs []float64
		for total := 0.0; total < sweepMinSeconds; {
			start := time.Now()
			fig, err := experiment.Fig2a(experiment.Options{Seed: 1, Trials: trials, Quick: *quick, Parallelism: parallelism})
			if err != nil {
				return 0, err
			}
			if len(fig.Rows) == 0 {
				return 0, fmt.Errorf("empty figure")
			}
			runs = append(runs, time.Since(start).Seconds())
			total += runs[len(runs)-1]
		}
		sort.Float64s(runs)
		return runs[len(runs)/2], nil
	}
	seqSec, err := sweep(1)
	if err != nil {
		return err
	}
	parSec, err := sweep(0)
	if err != nil {
		return err
	}
	doc.Sweep = sweepResult{
		Experiment:        "fig2a",
		Trials:            trials,
		Quick:             *quick,
		SequentialSeconds: seqSec,
		ParallelSeconds:   parSec,
		ParallelWorkers:   runtime.GOMAXPROCS(0),
		Speedup:           seqSec / parSec,
	}
	fmt.Printf("%-40s %12.3f s sequential, %.3f s parallel (%.2fx, %d workers)\n",
		"sweep/fig2a", seqSec, parSec, doc.Sweep.Speedup, doc.Sweep.ParallelWorkers)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)

	if *against != "" {
		return compareBaseline(&doc, *against, *tolerance)
	}
	return nil
}

// compareBaseline checks the fresh results against a committed baseline.
// Only benchmarks present in both documents are compared. allocs/op and
// B/op are gated — they are deterministic, so a regression beyond the
// tolerance is an error. ns/op is advisory: printed, never gating.
// Baseline rows the fresh run no longer has are printed as gone
// (advisory), so a deleted benchmark shows in the gate output.
func compareBaseline(doc *baseline, path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	prev := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		prev[b.Name] = b
	}
	fresh := make(map[string]bool, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		fresh[b.Name] = true
	}

	fmt.Printf("\ncomparing against %s (tolerance %.0f%%)\n", path, 100*tolerance)
	violations, compared, added := 0, 0, 0
	for _, cur := range doc.Benchmarks {
		old, ok := prev[cur.Name]
		if !ok {
			// A benchmark the baseline has never seen cannot regress, but
			// it must not vanish from the report either: print its numbers
			// so the row is ready to gate once the baseline is re-recorded.
			added++
			fmt.Printf("  new   %-42s %12.0f ns/op %10d B/op %8d allocs/op (not in baseline, advisory)\n",
				cur.Name, cur.NsPerOp, cur.BytesPerOp, cur.AllocsPerOp)
			continue
		}
		compared++
		gate := func(metric string, curV, oldV int64) {
			if oldV <= 0 {
				return
			}
			ratio := float64(curV) / float64(oldV)
			if ratio > 1+tolerance {
				fmt.Printf("  FAIL  %-42s %s %d -> %d (%+.1f%%)\n",
					cur.Name, metric, oldV, curV, 100*(ratio-1))
				violations++
				return
			}
			fmt.Printf("  ok    %-42s %s %d -> %d (%+.1f%%)\n",
				cur.Name, metric, oldV, curV, 100*(ratio-1))
		}
		gate("allocs/op", cur.AllocsPerOp, old.AllocsPerOp)
		gate("B/op", cur.BytesPerOp, old.BytesPerOp)
		if old.NsPerOp > 0 {
			fmt.Printf("  info  %-42s ns/op %.0f -> %.0f (%+.1f%%, advisory)\n",
				cur.Name, old.NsPerOp, cur.NsPerOp, 100*(cur.NsPerOp/old.NsPerOp-1))
		}
	}
	gone := 0
	for _, old := range base.Benchmarks {
		if !fresh[old.Name] {
			gone++
			fmt.Printf("  gone  %-42s (in baseline, not in this run, advisory)\n", old.Name)
		}
	}
	if compared == 0 {
		return fmt.Errorf("baseline %s shares no benchmark names with this run", path)
	}
	if violations > 0 {
		return fmt.Errorf("%d perf regression(s) beyond %.0f%% tolerance", violations, 100*tolerance)
	}
	fmt.Printf("all %d shared benchmarks within tolerance", compared)
	if added > 0 {
		fmt.Printf("; %d new benchmark(s) not in baseline (advisory — re-record to gate them)", added)
	}
	if gone > 0 {
		fmt.Printf("; %d baseline benchmark(s) gone from this run (advisory — re-record to drop them)", gone)
	}
	fmt.Println()
	return nil
}

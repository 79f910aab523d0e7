// Command e2ebench is the repository's end-to-end benchmark. One run takes
// a workload and a seed, and:
//
//  1. sets up several times, keeping the last: generates the deployment
//     from the seed, writes its scenario document, and starts a real mecd
//     on it up to its first cold POST /v1/solve;
//  2. plans the document in batch, each pass the first of a fresh process
//     (bytes on disk → scenarioio.Decode → core.LPHTA → core.CheckFeasible
//     → sim.Run → core.Evaluate), as a `mecsim -load` user pays it;
//  3. drives the daemon open-loop with task arrivals, FIFO departures,
//     device churn, solves and reads computed up front from the seed;
//  4. checks every output: C1–C5 and one assignment digest across passes,
//     every request's status, the daemon's arrival and departure counters,
//     and its final assignment against batch LP-HTA over the survivors.
//
// It prints an environment line and then, as its last line, one JSON
// result. With -trace 0 the result holds the end-to-end metrics; with
// -trace 1 it holds per-layer metrics instead, from traced passes that
// time each public call and read the library's own registry, from the
// daemon's /metrics.json and /debug/vars, and from the load generator, and
// the run writes a Chrome trace under .bench_build/trace.
//
// run.sh builds this binary and mecd from the checkout and execs it from
// the repository root:
//
//	sh e2ebench/run.sh --workload batch-contended --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"dsmec/internal/core"
	"dsmec/internal/rng"
	"dsmec/internal/scenarioio"
	"dsmec/internal/task"
	"dsmec/internal/workload"
)

// workloadSpec is one deployment, the devices, stations and preloaded
// tasks every phase of a run works on, and the task arrival rate its
// service phase carries. Everything else is generator defaults.
type workloadSpec struct {
	name     string
	devices  int
	stations int
	tasks    int
	arrivals float64 // per second
}

// workloads vary the two axes LP-HTA's per-cluster decomposition makes
// matter, cluster size and cluster count; BENCHMARK.json records why each
// was chosen. The batch workloads' traffic is half online-churn's: at
// 1,000 arrivals/s the ordered mutation connection was about 65% busy on
// batch-contended, and when the shared host slowed a run it saturated and
// mutation latencies grew without bound.
var workloads = []workloadSpec{
	{name: "batch-contended", devices: 6000, stations: 120, tasks: 36000, arrivals: 500},
	{name: "batch-wide", devices: 100000, stations: 5000, tasks: 100000, arrivals: 500},
	{name: "online-churn", devices: 800, stations: 20, tasks: 6000, arrivals: 1000},
}

const (
	// batchShare of --seconds goes to batch passes, the rest to traffic.
	batchShare = 0.3
	// setups is how many times a run sets up; setup_s is their median.
	setups = 3
	// minPasses batch passes run even past the batch share, so digests
	// can be compared and a median taken.
	minPasses = 3
	// maxLateP99 is the generator lag past which the offered load is no
	// longer the schedule's and the run is invalid.
	maxLateP99 = 100 * time.Millisecond
	// buildDir holds everything building and running leaves behind.
	buildDir = ".bench_build"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "pass" {
		os.Exit(passMain(os.Args[2:]))
	}
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// config is one run's settings.
type config struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	trace   bool
	traffic traffic
	mecd    string // daemon binary
	self    string // this binary, re-run for batch passes
	work    string // the run's scratch directory
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: batch-contended, batch-wide or online-churn")
	seed := fs.Int64("seed", 1, "seed the run's inputs are generated from")
	seconds := fs.Int("seconds", 25, "seconds of batch passes plus traffic to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := config{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, traffic: serviceTraffic}
	for _, w := range workloads {
		if w.name == *name {
			cfg.spec = w
			cfg.traffic.arrivalRate = w.arrivals
		}
	}
	switch {
	case cfg.spec.name == "":
		return fmt.Errorf("unknown workload %q", *name)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *seconds < 1:
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	var err error
	if cfg.self, err = os.Executable(); err != nil {
		return err
	}
	cfg.mecd = filepath.Join(buildDir, "bin", "mecd")
	if _, err := os.Stat(cfg.mecd); err != nil {
		return fmt.Errorf("mecd binary missing (run e2ebench/run.sh from the repository root): %w", err)
	}
	cfg.work = filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := printEnv(cfg); err != nil {
		return err
	}
	res, tl, err := run(ctx, cfg)
	if err != nil {
		return err
	}
	if tl != nil {
		path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", cfg.spec.name, cfg.seed))
		if err := tl.writeFile(path); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "e2ebench: trace written to", path)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// printEnv prints the line that says what a result was measured on.
func printEnv(cfg config) error {
	src, err := sourceDigest(".")
	if err != nil {
		return err
	}
	env := map[string]any{
		"workload":       cfg.spec.name,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"trace":          cfg.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"source_sha256":  src,
		"devices":        cfg.spec.devices,
		"stations":       cfg.spec.stations,
		"tasks":          cfg.spec.tasks,
		"arrivals_per_s": cfg.traffic.arrivalRate,
		"solve_every_ms": cfg.traffic.solveEvery.Seconds() * 1e3,
		"read_every_ms":  cfg.traffic.readEvery.Seconds() * 1e3,
		"churn_every_s":  cfg.traffic.churnEvery.Seconds(),
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{"env": env})
}

// sourceDigest hashes every file of the checkout but the build directory,
// standing in for a commit ID: the benchmark runs in checkouts that are
// not git repositories.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == buildDir || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	return fmt.Sprintf("%x", h.Sum(nil)), err
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted operations — passes, requests and output checks —
// and the failed ones, reporting the first few failures on stderr.
type tally struct {
	attempted, failed int
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if t.failed <= 10 {
		fmt.Fprintf(os.Stderr, "e2ebench: FAIL "+format+"\n", args...)
	}
}

// deployment is a workload's generated inputs.
type deployment struct {
	scenario *workload.Scenario // topology and the preloaded tasks: the document's content
	preload  []*task.Task
}

// generate draws the deployment from the seed. The preloaded tasks go into
// the document in a seeded random order, which is their age: FIFO
// departures then hit shards at random, and the daemon's per-shard
// compactions spread over the run instead of all falling due at once, as
// they would in the generator's round-robin order.
func generate(spec workloadSpec, seed int64) (*deployment, error) {
	src := rng.NewSource(seed)
	sc, err := workload.GenerateHolistic(src, workload.Params{
		NumDevices:  spec.devices,
		NumStations: spec.stations,
		NumTasks:    spec.tasks,
	})
	if err != nil {
		return nil, err
	}
	aged := &task.Set{}
	aged.Grow(sc.Tasks.Len())
	for _, i := range src.Stream("e2ebench.age").Perm(sc.Tasks.Len()) {
		t := *sc.Tasks.At(i)
		if err := aged.Add(&t); err != nil {
			return nil, err
		}
	}
	sc.Tasks = aged
	dep := &deployment{scenario: sc}
	for i := 0; i < aged.Len(); i++ {
		dep.preload = append(dep.preload, aged.At(i))
	}
	return dep, nil
}

func writeDocument(path string, sc *workload.Scenario) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := scenarioio.Encode(w, sc); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// run executes one benchmark run; the trace log is nil unless cfg.trace.
func run(ctx context.Context, cfg config) (*result, *traceLog, error) {
	var tl *traceLog
	if cfg.trace {
		tl = &traceLog{start: time.Now()}
	}
	var tal tally
	ctl := newClient()
	defer ctl.CloseIdleConnections()

	batchSpan := time.Duration(cfg.seconds * batchShare * float64(time.Second))
	serviceSpan := time.Duration(cfg.seconds*float64(time.Second)) - batchSpan

	// Set-up: input generation, then mecd exec → decode → preload → first
	// cold /v1/solve. Compiling is run.sh's and is not timed.
	doc := filepath.Join(cfg.work, "scenario.json")
	var (
		dep    *deployment
		d      *daemon
		setupS []float64
	)
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
			d = nil
		}
		t0 := time.Now()
		var err error
		if dep, err = generate(cfg.spec, cfg.seed); err != nil {
			return nil, nil, err
		}
		if err := writeDocument(doc, dep.scenario); err != nil {
			return nil, nil, err
		}
		if d, err = startDaemon(ctx, cfg.mecd, doc); err != nil {
			return nil, nil, err
		}
		n, err := d.solve(ctx, ctl)
		if err != nil {
			return nil, nil, fmt.Errorf("first solve: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		tl.span("setup", pidSetup, 1, t0, time.Now())
		tal.check(n == len(dep.preload), "first solve covered %d tasks, want %d", n, len(dep.preload))
	}

	// Batch passes, alternating untraced and traced in a traced run.
	var plain, traced []*passReport
	digest := ""
	want := minPasses
	if cfg.trace {
		want *= 2
	}
	batchStart := time.Now()
	for n := 0; n < want || time.Since(batchStart) < batchSpan; n++ {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		isTraced := cfg.trace && n%2 == 1
		t0 := time.Now()
		rep, err := spawnPass(ctx, cfg.self, doc, isTraced)
		if err != nil {
			tal.check(false, "batch pass %d: %v", n, err)
			continue
		}
		if digest == "" {
			digest = rep.Digest
		}
		tal.check(rep.Digest == digest, "batch pass %d: assignment digest %s, earlier passes %s", n, rep.Digest, digest)
		if isTraced {
			// The calls run one after another, so a negative remainder
			// means the timers overlap.
			tal.check(rep.Layers["unattributed_s"] >= 0, "batch pass %d: timed calls exceed the pass by %gs", n, -rep.Layers["unattributed_s"])
			traced = append(traced, rep)
			tl.pass(t0, rep)
		} else {
			plain = append(plain, rep)
		}
	}
	if len(plain) == 0 || (cfg.trace && len(traced) == 0) {
		return nil, nil, errors.New("no batch pass succeeded")
	}

	// Service phase.
	sched, err := buildSchedule(cfg.seed, cfg.traffic, serviceSpan, cfg.spec.devices, dep.preload)
	if err != nil {
		return nil, nil, err
	}
	before, err := d.snapshot(ctx, ctl)
	if err != nil {
		return nil, nil, err
	}
	serviceStart := time.Now()
	results := drive(ctx, d.base, sched.ops)
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	after, err := d.snapshot(ctx, ctl)
	if err != nil {
		return nil, nil, err
	}
	mecdRSS, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, nil, err
	}
	accepted := map[opKind]int64{}
	for i := range sched.ops {
		o, r := &sched.ops[i], &results[i]
		tal.check(!r.failed(o), "%s %v at %v: status %d, error %v", o.kind, o.id, o.at, r.status, r.err)
		if !r.failed(o) {
			accepted[o.kind]++
		}
		tl.request(serviceStart, o, r)
	}
	delta := func(name string) int64 { return after.reg.Counters[name] - before.reg.Counters[name] }
	tal.check(delta("mecd.arrivals") == accepted[opArrive],
		"mecd.arrivals rose by %d, %d arrivals were accepted", delta("mecd.arrivals"), accepted[opArrive])
	tal.check(delta("mecd.departures") == accepted[opDepart],
		"mecd.departures rose by %d, %d departures were accepted", delta("mecd.departures"), accepted[opDepart])
	if err := checkFinal(ctx, ctl, d, dep, sched, &tal); err != nil {
		return nil, nil, err
	}

	lat := latencies(sched.ops, results)
	late, err := percentile(lat.late, 990)
	if err != nil {
		return nil, nil, err
	}
	onTime := late <= maxLateP99.Seconds()*1e3
	if !onTime {
		fmt.Fprintf(os.Stderr, "e2ebench: INVALID run: generator p99 lateness %.2f ms exceeds %v\n", late, maxLateP99)
	}
	res := &result{Correct: tal.failed == 0 && onTime, Attempted: tal.attempted, Failed: tal.failed}
	if cfg.trace {
		res.Metrics, err = layerMetrics(plain, traced, before, after, sched.ops, lat)
	} else {
		res.Metrics, err = endToEndMetrics(setupS, plain, mecdRSS, lat)
	}
	return res, tl, err
}

// checkFinal requires the drained daemon's assignment to equal batch
// LP-HTA over the surviving tasks in arrival order.
func checkFinal(ctx context.Context, ctl *http.Client, d *daemon, dep *deployment, sched *schedule, tal *tally) error {
	var got assignmentsDoc
	if err := d.getJSON(ctx, ctl, "/v1/assignments", &got); err != nil {
		return err
	}
	byID := make(map[task.ID]*task.Task, len(dep.preload)+len(sched.arrived))
	for _, t := range dep.preload {
		byID[t.ID] = t
	}
	for _, t := range sched.arrived {
		byID[t.ID] = t
	}
	survivors := &task.Set{}
	survivors.Grow(len(sched.survivors))
	for _, id := range sched.survivors {
		cp := *byID[id]
		if err := survivors.Add(&cp); err != nil {
			return err
		}
	}
	batch, err := core.LPHTA(dep.scenario.Model, survivors, nil)
	if err != nil {
		return err
	}
	mismatches := 0
	for _, row := range got.Assignments {
		l, ok := batch.Assignment.Lookup(task.ID{User: row.User, Index: row.Index})
		if !ok || l.String() != row.Subsystem {
			mismatches++
		}
	}
	tal.check(len(got.Assignments) == survivors.Len() && mismatches == 0,
		"final assignment: %d rows for %d survivors, %d differ from batch LP-HTA", len(got.Assignments), survivors.Len(), mismatches)
	return nil
}

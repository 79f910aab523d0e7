package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"time"

	"dsmec/internal/core"
	"dsmec/internal/obs"
	"dsmec/internal/scenarioio"
	"dsmec/internal/sim"
	"dsmec/internal/workload"
)

// passReport is what one batch pass prints: the user-visible results, and
// with -trace the per-layer figures of that pass.
type passReport struct {
	PassS     float64 `json:"pass_s"`
	RSSMB     float64 `json:"rss_mb"`
	Tasks     int     `json:"tasks"`
	Cancelled int     `json:"cancelled"`
	Placed    int     `json:"placed"`
	Misses    int     `json:"misses"`
	EnergyJ   float64 `json:"energy_j"`
	Digest    string  `json:"digest"`

	Calls  []callSpan         `json:"calls,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// callSpan is one timed public call of a pass, relative to the pass start.
type callSpan struct {
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	DurS   float64 `json:"dur_s"`
}

// passMain is the child side of a batch pass: one fresh process runs bytes
// on disk → scenarioio.Decode → core.LPHTA → core.CheckFeasible → sim.Run
// → core.Evaluate once, as a `mecsim -load` user pays it, and prints its
// passReport as JSON.
func passMain(args []string) int {
	fs := flag.NewFlagSet("pass", flag.ContinueOnError)
	doc := fs.String("doc", "", "scenario document to plan")
	traced := fs.Bool("trace", false, "record per-layer figures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := runPass(*doc, *traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench pass:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench pass:", err)
		return 1
	}
	return 0
}

// passCalls times the public calls of one pass. When traced it also takes
// runtime.MemStats deltas around each call, which stops the world, so the
// untraced pass skips them.
type passCalls struct {
	start  time.Time
	traced bool
	spans  []callSpan
	allocs map[string]float64
}

func (p *passCalls) do(name string, f func() error) error {
	var before runtime.MemStats
	if p.traced {
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	err := f()
	p.spans = append(p.spans, callSpan{Name: name, StartS: t0.Sub(p.start).Seconds(), DurS: time.Since(t0).Seconds()})
	if p.traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.allocs[name] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	return err
}

func (p *passCalls) seconds(name string) float64 {
	for _, s := range p.spans {
		if s.Name == name {
			return s.DurS
		}
	}
	return 0
}

func runPass(docPath string, traced bool) (*passReport, error) {
	var reg *obs.Registry
	var memStart runtime.MemStats
	if traced {
		reg = obs.NewRegistry()
		runtime.ReadMemStats(&memStart)
	}
	ins := obs.Instruments{Metrics: reg}
	calls := &passCalls{start: time.Now(), traced: traced, allocs: map[string]float64{}}

	var sc *workload.Scenario
	if err := calls.do("scenarioio.Decode", func() error {
		f, err := os.Open(docPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sc, err = scenarioio.Decode(bufio.NewReaderSize(f, 1<<20))
		return err
	}); err != nil {
		return nil, err
	}
	var res *core.HTAResult
	if err := calls.do("core.LPHTA", func() (err error) {
		res, err = core.LPHTA(sc.Model, sc.Tasks, &core.LPHTAOptions{Obs: ins})
		return err
	}); err != nil {
		return nil, err
	}
	if err := calls.do("core.CheckFeasible", func() error {
		return core.CheckFeasible(sc.Model, sc.Tasks, res.Assignment)
	}); err != nil {
		return nil, fmt.Errorf("LP-HTA output violates C1–C5: %w", err)
	}
	var replay *sim.Result
	if err := calls.do("sim.Run", func() (err error) {
		replay, err = sim.Run(sc.Model, sc.Tasks, res.Assignment, sim.Config{Obs: ins})
		return err
	}); err != nil {
		return nil, err
	}
	var m *core.Metrics
	if err := calls.do("core.Evaluate", func() (err error) {
		m, err = core.Evaluate(sc.Model, sc.Tasks, res.Assignment)
		return err
	}); err != nil {
		return nil, err
	}
	wall := time.Since(calls.start).Seconds()

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	for i := 0; i < sc.Tasks.Len(); i++ {
		l, _ := res.Assignment.LevelAt(i)
		fmt.Fprintf(h, "%v=%d;", sc.Tasks.At(i).ID, l)
	}
	rep := &passReport{
		PassS:     wall,
		RSSMB:     rss,
		Tasks:     m.NumTasks,
		Cancelled: m.Cancelled,
		Placed:    replay.Placed,
		Misses:    replay.DeadlineViolations,
		EnergyJ:   m.TotalEnergy.Joules(),
		Digest:    fmt.Sprintf("%016x", h.Sum64()),
	}
	if !traced {
		return rep, nil
	}
	var memEnd runtime.MemStats
	runtime.ReadMemStats(&memEnd)
	rep.Calls = calls.spans
	rep.Layers = passLayers(reg.Snapshot(), calls, wall, docPath)
	rep.Layers["runtime.alloc_mb"] = float64(memEnd.TotalAlloc-memStart.TotalAlloc) / 1e6
	rep.Layers["runtime.gc_cycles"] = float64(memEnd.NumGC - memStart.NumGC)
	rep.Layers["runtime.gc_pause_s"] = float64(memEnd.PauseTotalNs-memStart.PauseTotalNs) / 1e9
	return rep, nil
}

// passLayers derives a traced pass's per-layer figures from the call timers
// and the registry the library recorded into.
func passLayers(snap obs.Snapshot, calls *passCalls, wall float64, docPath string) map[string]float64 {
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	sum := func(name string) float64 { return snap.Histograms[name].Sum }
	l := map[string]float64{}

	if fi, err := os.Stat(docPath); err == nil {
		l["scenarioio.doc_mb"] = float64(fi.Size()) / 1e6
	}
	l["scenarioio.decode_s"] = calls.seconds("scenarioio.Decode")
	l["scenarioio.alloc_mb"] = calls.allocs["scenarioio.Decode"]

	lphta := calls.seconds("core.LPHTA")
	busy := sum("lphta.cluster_seconds")
	stages := sum("lphta.stage_seconds.build") + sum("lphta.stage_seconds.solve") +
		sum("lphta.stage_seconds.round") + sum("lphta.stage_seconds.repair")
	l["core.lphta_s"] = lphta
	l["core.lphta.clusters"] = c("lphta.clusters")
	l["core.lphta.cluster_busy_s"] = busy
	l["core.lphta.parallel_eff"] = ratio(busy, lphta*float64(runtime.GOMAXPROCS(0)))
	l["core.lphta.build_s"] = sum("lphta.stage_seconds.build")
	l["core.lphta.round_s"] = sum("lphta.stage_seconds.round")
	l["core.lphta.repair_s"] = sum("lphta.stage_seconds.repair")
	l["core.lphta.unattributed_s"] = busy - stages
	l["core.lphta.alloc_mb"] = calls.allocs["core.LPHTA"]
	l["core.lphta.deadline_repairs"] = c("lphta.deadline_repairs")
	l["core.lphta.migrations"] = c("lphta.device_migrations") + c("lphta.station_migrations")
	l["core.lphta.cancellations"] = c("lphta.device_cancellations") + c("lphta.station_cancellations")

	l["lp.solve_busy_s"] = sum("lp.solve_seconds")
	l["lp.solves"] = c("lp.solves")
	l["lp.fallbacks"] = c("lphta.lp_fallbacks")
	l["lp.pivots"] = c("lp.pivots")
	l["lp.pivots_per_solve"] = ratio(c("lp.pivots"), c("lp.solves"))
	l["lp.refactorizations"] = c("lp.refactorizations")

	replay := calls.seconds("sim.Run")
	l["sim.replay_s"] = replay
	l["sim.events"] = c("sim.events")
	l["sim.events_per_s"] = ratio(c("sim.events"), replay)
	l["sim.alloc_mb"] = calls.allocs["sim.Run"]

	l["core.check_s"] = calls.seconds("core.CheckFeasible")
	l["core.evaluate_s"] = calls.seconds("core.Evaluate")

	timed := 0.0
	for _, s := range calls.spans {
		timed += s.DurS
	}
	l["unattributed_s"] = wall - timed
	return l
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spawnPass runs one batch pass in a fresh process of this binary.
func spawnPass(ctx context.Context, self, doc string, traced bool) (*passReport, error) {
	args := []string{"pass", "-doc", doc}
	if traced {
		args = append(args, "-trace")
	}
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("pass: %w", err)
	}
	var rep passReport
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("pass report: %w", err)
	}
	return &rep, nil
}

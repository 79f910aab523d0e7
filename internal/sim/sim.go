package sim

import (
	"fmt"

	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/mecnet"
	"dsmec/internal/obs"
	"dsmec/internal/stats"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

// Config sizes the shared resources. Zero values take the defaults.
type Config struct {
	// StationCores is the number of tasks a base station's small-scale
	// cloud can compute simultaneously. Default 4.
	StationCores int
	// CloudCores is the cloud's parallelism. Default 64.
	CloudCores int
	// Obs selects where metrics and trace spans are recorded. The zero
	// value records metrics to the process-wide obs registry (if any)
	// and disables tracing.
	Obs obs.Instruments
	// Faults optionally schedules infrastructure faults for the run and
	// enables the retry/reassign recovery machinery. Nil (the default)
	// disables fault injection entirely: the engine takes the exact same
	// code paths and produces bit-identical output to a fault-free build.
	Faults *FaultPlan
}

func (c Config) withDefaults() Config {
	if c.StationCores == 0 {
		c.StationCores = 4
	}
	if c.CloudCores == 0 {
		c.CloudCores = 64
	}
	return c
}

// TaskOutcome is one task's simulated execution record.
type TaskOutcome struct {
	// ID is the task's identity; Placed reports whether the task actually
	// ran (false for cancelled and fault-lost tasks, whose remaining
	// fields are zero).
	ID     task.ID
	Placed bool

	Subsystem costmodel.Subsystem
	// Release is when the task entered the system (0 in the quasi-static
	// setting); Completion is the absolute time its result reached the
	// user; Sojourn = Completion - Release is the user-perceived latency.
	Release    units.Duration
	Completion units.Duration
	Sojourn    units.Duration
	Analytic   units.Duration // the closed-form t_ijl for comparison
	DeadlineOK bool           // Sojourn <= deadline
	// Faulted marks tasks that lost at least one attempt to a fault
	// before completing; their deadline misses are attributed to faults
	// rather than capacity. Always false without fault injection.
	Faulted bool
}

// Result summarizes a simulation run.
type Result struct {
	// Outcomes holds one record per task in the set's arena order (dense,
	// not a map); entries with Placed == false were cancelled or lost.
	Outcomes []TaskOutcome
	// Placed counts tasks that completed in the simulator.
	Placed int
	// TotalEnergy matches the analytic model: queueing shifts time, not
	// energy.
	TotalEnergy units.Energy
	// Makespan is the completion time of the last task.
	Makespan units.Duration
	// TotalLatency sums sojourn times (= completions in the quasi-static
	// setting); MeanLatency averages over placed tasks.
	TotalLatency units.Duration
	// DeadlineViolations counts placed tasks finishing after their
	// deadline (under queueing, more tasks miss deadlines than the
	// analytic model predicts).
	DeadlineViolations int
	// Cancelled counts tasks the assignment did not place.
	Cancelled int
	// Faults carries the fault/recovery accounting and FaultLog the
	// ordered fault event log; both are nil without fault injection.
	Faults   *FaultStats
	FaultLog []FaultEvent

	ts *task.Set // for Outcome lookups
}

// Outcome returns the placed outcome of a task by ID.
func (r *Result) Outcome(id task.ID) (TaskOutcome, bool) {
	if r.ts == nil {
		return TaskOutcome{}, false
	}
	i, ok := r.ts.IndexOf(id)
	if !ok || !r.Outcomes[i].Placed {
		return TaskOutcome{}, false
	}
	return r.Outcomes[i], true
}

// MeanLatency returns the average simulated latency over placed tasks.
func (r *Result) MeanLatency() units.Duration {
	if r.Placed == 0 {
		return 0
	}
	return r.TotalLatency / units.Duration(r.Placed)
}

// Run simulates the execution of assignment a over the task set, with
// every task released at time zero (the paper's quasi-static setting).
func Run(m *costmodel.Model, ts *task.Set, a *core.Assignment, cfg Config) (*Result, error) {
	return RunReleases(m, ts, a, cfg, nil)
}

// RunReleases simulates the execution with per-task release times,
// relaxing the quasi-static assumption: a task's plan enters the system at
// releases[id] (zero when absent), and its deadline is checked against the
// sojourn time Completion - Release.
func RunReleases(m *costmodel.Model, ts *task.Set, a *core.Assignment, cfg Config, releases map[task.ID]units.Duration) (*Result, error) {
	cfg = cfg.withDefaults()
	sys := m.System()

	span := cfg.Obs.Span.Child("sim.run")
	defer span.End()
	span.Annotate("tasks", ts.Len())
	cfg.Obs.Counter("sim.runs").Inc()

	buildSpan := span.Child("sim.build")
	eng := &engine{ins: cfg.Obs}
	res := &Result{Outcomes: make([]TaskOutcome, ts.Len()), ts: ts}

	// Size the arenas exactly before anything is appended: the plan and
	// stage counts follow from the assignment alone, and the resource
	// count from the topology, so the builder never pays append-doubling.
	nplans, nstages := countStages(sys, ts, a)
	eng.reserve(nplans, nstages, 3*sys.NumDevices()+3*sys.NumStations()+1)

	// Build resources.
	devUp := make([]int32, sys.NumDevices())
	devDown := make([]int32, sys.NumDevices())
	devCPU := make([]int32, sys.NumDevices())
	for i := range devUp {
		devUp[i] = eng.newResource(1, "dev.up")
		devDown[i] = eng.newResource(1, "dev.down")
		devCPU[i] = eng.newResource(1, "dev.cpu")
	}
	stWire := make([]int32, sys.NumStations())
	stWAN := make([]int32, sys.NumStations())
	stCPU := make([]int32, sys.NumStations())
	for s := range stWire {
		stWire[s] = eng.newResource(1, "st.wire")
		stWAN[s] = eng.newResource(1, "st.wan")
		stCPU[s] = eng.newResource(cfg.StationCores, "st.cpu")
	}
	cloudCPU := eng.newResource(cfg.CloudCores, "cloud.cpu")
	pools := planResources{
		devUp: devUp, devDown: devDown, devCPU: devCPU,
		stWire: stWire, stWAN: stWAN, stCPU: stCPU, cloudCPU: cloudCPU,
	}

	var fr *faultRunner
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(sys); err != nil {
			return nil, err
		}
		fr = newFaultRunner(eng, cfg.Faults, sys, m, pools)
	}

	// Under fault injection, energyOf holds each task's analytic energy
	// for its (final) placement and the final task-order pass sums it, so
	// floating-point accumulation is deterministic whether or not tasks
	// were reassigned. Without faults, placements never move and energy
	// accumulates inline in the same task order (identical sums).
	var energyOf []units.Energy
	if fr != nil {
		energyOf = make([]units.Energy, ts.Len())
	}

	// One engine-level completion hook serves every fault-free plan: the
	// plan carries its dense task index, so no per-task closure is built.
	eng.done = func(pi int32, finish units.Duration) {
		ti := eng.plans[pi].task
		o := &res.Outcomes[ti]
		o.Placed = true
		o.Completion = finish
		o.Sojourn = finish - o.Release
		o.DeadlineOK = o.Sojourn <= ts.At(int(ti)).Deadline
	}

	for i := 0; i < ts.Len(); i++ {
		t := ts.At(i)
		res.Outcomes[i].ID = t.ID
		l, ok := a.LevelFor(ts, i)
		if !ok {
			return nil, fmt.Errorf("sim: task %v missing from assignment", t.ID)
		}
		switch l {
		case costmodel.SubsystemNone:
			res.Cancelled++
			continue
		case costmodel.SubsystemDevice, costmodel.SubsystemStation, costmodel.SubsystemCloud:
		default:
			return nil, fmt.Errorf("sim: task %v has invalid subsystem %d", t.ID, int(l))
		}
		opts, err := m.Eval(t)
		if err != nil {
			return nil, err
		}
		release := releases[t.ID]
		if release < 0 || !release.IsFinite() {
			return nil, fmt.Errorf("sim: task %v has invalid release %v", t.ID, release)
		}

		if fr != nil {
			att := &attempt{
				eng: eng, fr: fr, m: m, res: res, pools: pools, energyOf: energyOf,
				t: t, tIdx: int32(i), opts: opts, release: release, placement: l,
			}
			if err := att.launch(release); err != nil {
				return nil, err
			}
			continue
		}

		res.TotalEnergy += opts.At(l).Energy
		pi, err := buildPlan(eng, m, t, int32(i), l, pools)
		if err != nil {
			return nil, err
		}
		o := &res.Outcomes[i]
		o.Subsystem = l
		o.Release = release
		o.Analytic = opts.At(l).Time
		eng.releaseAt(pi, release)
	}
	buildSpan.End()

	runSpan := span.Child("sim.events")
	eng.run()
	runSpan.Annotate("events", eng.dispatched)
	runSpan.End()

	// Accumulate in task order so floating-point sums are deterministic
	// run to run. Sojourns bin into local counts and merge into the
	// registry once, off the per-task path.
	var sojourns stats.HistogramCounts
	if cfg.Obs.Registry() != nil {
		sojourns = stats.HistogramCounts{
			Bounds: obs.TimeBuckets,
			Counts: make([]int64, len(obs.TimeBuckets)+1),
		}
	}
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if !o.Placed {
			continue
		}
		res.Placed++
		if fr != nil {
			res.TotalEnergy += energyOf[i]
		}
		res.TotalLatency += o.Sojourn
		if sojourns.Counts != nil {
			sojourns.Counts[stats.Bucketize(o.Sojourn.Seconds(), sojourns.Bounds)]++
			sojourns.Count++
			sojourns.Sum += o.Sojourn.Seconds()
		}
		if o.Completion > res.Makespan {
			res.Makespan = o.Completion
		}
		if !o.DeadlineOK {
			res.DeadlineViolations++
			if fr != nil {
				if o.Faulted {
					fr.stats.FaultMisses++
				} else {
					fr.stats.CapacityMisses++
				}
			}
		}
	}
	lost := 0
	if fr != nil {
		lost = fr.stats.Lost
		// Energy burnt on attempts that a fault voided is still energy the
		// system drew from batteries and stations.
		res.TotalEnergy += fr.stats.WastedEnergy
		res.Faults = &fr.stats
		res.FaultLog = fr.log
	}
	if want := ts.Len() - res.Cancelled - lost; res.Placed != want {
		return nil, fmt.Errorf("sim: %d outcomes for %d placed tasks", res.Placed, want)
	}
	eng.recordMetrics()
	if fr != nil {
		fr.recordMetrics(cfg.Obs)
	}
	if sojourns.Count > 0 {
		_ = cfg.Obs.Histogram("sim.sojourn_seconds", obs.TimeBuckets).Merge(sojourns)
	}
	cfg.Obs.Counter("sim.tasks_placed").Add(int64(res.Placed))
	cfg.Obs.Counter("sim.tasks_cancelled").Add(int64(res.Cancelled))
	cfg.Obs.Counter("sim.deadline_misses").Add(int64(res.DeadlineViolations))
	span.Annotate("makespan_seconds", res.Makespan.Seconds())
	span.Annotate("deadline_misses", res.DeadlineViolations)
	if log := cfg.Obs.Logger(); log.Enabled(obs.LevelDebug) {
		log.Debug("sim run done",
			"tasks", ts.Len(),
			"placed", res.Placed,
			"cancelled", res.Cancelled,
			"lost", lost,
			"events", eng.dispatched,
			"makespan_seconds", res.Makespan.Seconds(),
			"deadline_misses", res.DeadlineViolations)
	}
	return res, nil
}

// planResources groups the resource pools (engine arena indices) for plan
// construction.
type planResources struct {
	devUp, devDown, devCPU []int32
	stWire, stWAN, stCPU   []int32
	cloudCPU               int32
}

// countStages mirrors buildPlan's branching to compute the exact plan
// and stage totals for an assignment before any plan is built. Tasks the
// build loop will reject (missing from the assignment, invalid placement,
// out-of-range device references) count zero here and fail there; the
// reservation is then merely an underestimate, never wrong output.
func countStages(sys *mecnet.System, ts *task.Set, a *core.Assignment) (nplans, nstages int) {
	for i := 0; i < ts.Len(); i++ {
		t := ts.At(i)
		l, ok := a.LevelFor(ts, i)
		if !ok {
			continue
		}
		if t.ID.User < 0 || t.ID.User >= len(sys.Devices) {
			continue
		}
		station := sys.Devices[t.ID.User].Station
		ext := t.HasExternal()
		cross := false
		if ext {
			if t.ExternalSource < 0 || t.ExternalSource >= len(sys.Devices) {
				continue
			}
			cross = sys.Devices[t.ExternalSource].Station != station
		}
		n := 0
		switch l {
		case costmodel.SubsystemDevice:
			n = 1 // device CPU
			if ext {
				n += 2 // source upload + home download
				if cross {
					n++ // inter-station wire hop
				}
			}
		case costmodel.SubsystemStation:
			n = 3 // local upload, station exec, download
			if ext {
				n++ // source upload
				if cross {
					n++ // inter-station wire hop
				}
			}
		case costmodel.SubsystemCloud:
			n = 4 // local upload, WAN crossing, cloud exec, download
			if ext {
				n++ // source upload
			}
		default:
			continue
		}
		nplans++
		nstages += n
	}
	return nplans, nstages
}

// buildPlan translates the Section II transfer/compute structure of
// placement l into a stage DAG in the engine's arena, bound to the dense
// task index ti, and returns the plan's arena index.
func buildPlan(e *engine, m *costmodel.Model, t *task.Task, ti int32, l costmodel.Subsystem, r planResources) (int32, error) {
	sys := m.System()
	dev, err := sys.Device(t.ID.User)
	if err != nil {
		return noIndex, fmt.Errorf("sim: %w", err)
	}
	home := t.ID.User
	station := dev.Station

	var src int
	sameCluster := true
	if t.HasExternal() {
		s, err := sys.Device(t.ExternalSource)
		if err != nil {
			return noIndex, fmt.Errorf("sim: %w", err)
		}
		src = t.ExternalSource
		sameCluster = s.Station == station
	}

	input := t.InputSize()
	cycles := m.Cycles(input)
	result := m.ResultSize(input)
	pi := e.newPlan(ti)

	switch l {
	case costmodel.SubsystemDevice:
		prev := noIndex
		if t.HasExternal() {
			beta := t.ExternalSize
			srcDev := &sys.Devices[src]
			prev = e.addStage(pi, r.devUp[src], srcDev.Link.UploadTime(beta))
			if !sameCluster {
				prev = e.addStageAfter(pi, r.stWire[srcDev.Station], sys.StationWire.TransferTime(beta), prev)
			}
			prev = e.addStageAfter(pi, r.devDown[home], dev.Link.DownloadTime(beta), prev)
		}
		e.addStageAfter(pi, r.devCPU[home], dev.Proc.ExecTime(cycles), prev)

	case costmodel.SubsystemStation:
		ext := noIndex
		if t.HasExternal() {
			beta := t.ExternalSize
			srcDev := &sys.Devices[src]
			ext = e.addStage(pi, r.devUp[src], srcDev.Link.UploadTime(beta))
			if !sameCluster {
				ext = e.addStageAfter(pi, r.stWire[srcDev.Station], sys.StationWire.TransferTime(beta), ext)
			}
		}
		local := e.addStage(pi, r.devUp[home], dev.Link.UploadTime(t.LocalSize))
		exec := e.addStageJoin(pi, r.stCPU[station], sys.Stations[station].Proc.ExecTime(cycles), ext, local)
		e.addStageAfter(pi, r.devDown[home], dev.Link.DownloadTime(result), exec)

	case costmodel.SubsystemCloud:
		ext := noIndex
		if t.HasExternal() {
			beta := t.ExternalSize
			srcDev := &sys.Devices[src]
			ext = e.addStage(pi, r.devUp[src], srcDev.Link.UploadTime(beta))
		}
		local := e.addStage(pi, r.devUp[home], dev.Link.UploadTime(t.LocalSize))
		// Mirror the analytic t_B,C(α+β+η): one WAN crossing charged for
		// the full round-trip volume.
		wan := e.addStageJoin(pi, r.stWAN[station], sys.CloudWire.TransferTime(input+result), ext, local)
		exec := e.addStageAfter(pi, r.cloudCPU, sys.Cloud.Proc.ExecTime(cycles), wan)
		e.addStageAfter(pi, r.devDown[home], dev.Link.DownloadTime(result), exec)

	default:
		return noIndex, fmt.Errorf("sim: task %v has invalid subsystem %d", t.ID, int(l))
	}
	return pi, nil
}

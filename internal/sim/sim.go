package sim

import (
	"fmt"

	"dsmec/internal/core"
	"dsmec/internal/costmodel"
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
	lay := layout{devices: sys.NumDevices(), stations: sys.NumStations()}
	nplans, nstages := countStages(m, ts, a)
	eng.reserve(nplans, nstages, lay.size())
	servers := [...]int{
		costmodel.DevUp: 1, costmodel.DevDown: 1, costmodel.DevCPU: 1,
		costmodel.StWire: 1, costmodel.StWAN: 1, costmodel.StCPU: cfg.StationCores,
		costmodel.CloudCPU: cfg.CloudCores,
	}
	for ri := range lay.size() {
		c, _ := lay.at(int32(ri))
		eng.newResource(servers[c], c.String())
	}

	var fr *faultRunner
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(sys); err != nil {
			return nil, err
		}
		fr = newFaultRunner(eng, cfg.Faults, m, lay)
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
		if l == costmodel.SubsystemNone {
			res.Cancelled++
			continue
		}
		st, err := m.Stages(t, l)
		if err != nil {
			return nil, err
		}
		release := releases[t.ID]
		if release < 0 || !release.IsFinite() {
			return nil, fmt.Errorf("sim: task %v has invalid release %v", t.ID, release)
		}

		if fr != nil {
			att := &attempt{
				eng: eng, fr: fr, m: m, res: res, energyOf: energyOf,
				t: t, tIdx: int32(i), release: release, placement: l,
			}
			if err := att.launch(release); err != nil {
				return nil, err
			}
			continue
		}

		c := st.Cost()
		res.TotalEnergy += c.Energy
		pi := buildPlan(eng, lay, &st, int32(i))
		o := &res.Outcomes[i]
		o.Subsystem = l
		o.Release = release
		o.Analytic = c.Time
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

// layout is the engine's resource arena as Run builds it: three
// resources per device (dev.up, dev.down, dev.cpu), three per station
// (st.wire, st.wan, st.cpu), then the cloud CPU. A stage's resource
// follows from its class and owner.
type layout struct{ devices, stations int }

func (l layout) size() int { return 3*l.devices + 3*l.stations + 1 }

// index returns the arena index of owner's class-c resource.
func (l layout) index(c costmodel.Class, owner int) int32 {
	switch {
	case c <= costmodel.DevCPU:
		return int32(3*owner + int(c-costmodel.DevUp))
	case c <= costmodel.StCPU:
		return int32(3*l.devices + 3*owner + int(c-costmodel.StWire))
	default:
		return int32(3*l.devices + 3*l.stations)
	}
}

// at is index's inverse: the class and owner of resource ri.
func (l layout) at(ri int32) (costmodel.Class, int) {
	i := int(ri)
	if i < 3*l.devices {
		return costmodel.DevUp + costmodel.Class(i%3), i / 3
	}
	if i -= 3 * l.devices; i < 3*l.stations {
		return costmodel.StWire + costmodel.Class(i%3), i / 3
	}
	return costmodel.CloudCPU, 0
}

// name labels resource ri in fault log lines, e.g. "st.wan[3]".
func (l layout) name(ri int32) string {
	c, owner := l.at(ri)
	if c == costmodel.CloudCPU {
		return c.String()
	}
	return fmt.Sprintf("%s[%d]", c, owner)
}

// countStages sums the stage-list lengths of the placed tasks, so Run
// can size the arenas exactly before building any plan. Tasks the build
// loop will reject count zero here and fail there; the reservation is
// then merely an underestimate, never wrong output.
func countStages(m *costmodel.Model, ts *task.Set, a *core.Assignment) (nplans, nstages int) {
	for i := 0; i < ts.Len(); i++ {
		l, ok := a.LevelFor(ts, i)
		if !ok || l == costmodel.SubsystemNone {
			continue
		}
		if st, err := m.Stages(ts.At(i), l); err == nil {
			nplans++
			nstages += int(st.N)
		}
	}
	return nplans, nstages
}

// buildPlan adds a placement's stage list to the engine arena as one plan
// bound to the dense task index ti and returns the plan's arena index.
// It adds the first listed stage whose predecessors are all in the arena,
// then the next: that reproduces the order the roots are enqueued in,
// which sets the event sequence numbers.
func buildPlan(e *engine, lay layout, st *costmodel.Stages, ti int32) int32 {
	pi := e.newPlan(ti)
	var at [costmodel.MaxStages]int32 // arena index of each listed stage
	var in uint8                      // bit i: listed stage i is in the arena
	for in != 1<<st.N-1 {
		for i := range st.N {
			s := &st.List[i]
			ready := in&(1<<i) == 0
			deps := [2]int32{noIndex, noIndex}
			for k, p := range s.After {
				if p >= 0 {
					ready = ready && in&(1<<p) != 0
					deps[k] = at[p]
				}
			}
			if ready {
				at[i] = e.addStage(pi, lay.index(s.Class, int(s.Owner)), s.Time, deps[0], deps[1])
				in |= 1 << i
				break
			}
		}
	}
	return pi
}

package core

import (
	"errors"
	"fmt"
	"sort"

	"dsmec/internal/costmodel"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

// ErrNoFeasible is returned by exact solvers when no assignment satisfies
// every HTA constraint without cancelling tasks.
var ErrNoFeasible = errors.New("core: no feasible full assignment exists")

// Assignment maps every task to the subsystem chosen for it.
// SubsystemNone marks a cancelled task (the algorithm could not place it
// within its deadline and the resource caps, and "informed the user").
//
// The assignment is a dense int8 level array parallel to the task set's
// arena order: one byte per task instead of a map entry, addressed by the
// same int32 indices the set hands out. A level of -1 means the task has
// not been placed or cancelled yet.
type Assignment struct {
	ts     *task.Set
	levels []int8
}

const levelUnset = int8(-1)

// NewAssignment returns an empty assignment over the given task set.
func NewAssignment(ts *task.Set) *Assignment {
	levels := make([]int8, ts.Len())
	for i := range levels {
		levels[i] = levelUnset
	}
	return &Assignment{ts: ts, levels: levels}
}

// Tasks returns the task set the assignment is built over.
func (a *Assignment) Tasks() *task.Set { return a.ts }

// Len returns the number of tasks the assignment covers (placed or not).
func (a *Assignment) Len() int { return len(a.levels) }

func (a *Assignment) indexOf(id task.ID) int {
	i, ok := a.ts.IndexOf(id)
	if !ok {
		panic(fmt.Sprintf("core: task %v is not in the assignment's task set", id))
	}
	return i
}

// Place records that the task runs on subsystem l.
func (a *Assignment) Place(id task.ID, l costmodel.Subsystem) {
	a.levels[a.indexOf(id)] = int8(l)
}

// Cancel marks the task as cancelled.
func (a *Assignment) Cancel(id task.ID) {
	a.levels[a.indexOf(id)] = int8(costmodel.SubsystemNone)
}

// PlaceAt records by dense arena index that the task runs on subsystem l.
func (a *Assignment) PlaceAt(i int, l costmodel.Subsystem) {
	a.levels[i] = int8(l)
}

// Of returns the subsystem assigned to the task; SubsystemNone when the
// task is cancelled or unknown.
func (a *Assignment) Of(id task.ID) costmodel.Subsystem {
	i, ok := a.ts.IndexOf(id)
	if !ok {
		return costmodel.SubsystemNone
	}
	l, _ := a.LevelAt(i)
	return l
}

// LevelAt returns the subsystem assigned to the i-th task of the set, and
// whether the task has been placed or cancelled at all.
func (a *Assignment) LevelAt(i int) (costmodel.Subsystem, bool) {
	l := a.levels[i]
	if l == levelUnset {
		return costmodel.SubsystemNone, false
	}
	return costmodel.Subsystem(l), true
}

// Lookup returns the subsystem assigned to the task and whether the task
// has been placed or cancelled at all (false also when the id is not in
// the assignment's task set).
func (a *Assignment) Lookup(id task.ID) (costmodel.Subsystem, bool) {
	i, ok := a.ts.IndexOf(id)
	if !ok {
		return costmodel.SubsystemNone, false
	}
	return a.LevelAt(i)
}

// LevelFor returns the level of the i-th task of ts. When the assignment
// was built over ts itself this is a direct array read; otherwise it
// falls back to an ID lookup, so assignments built over a rebuilt set
// with the same IDs (the feedback planner does this) still resolve.
func (a *Assignment) LevelFor(ts *task.Set, i int) (costmodel.Subsystem, bool) {
	if a.ts == ts {
		return a.LevelAt(i)
	}
	return a.Lookup(ts.At(i).ID)
}

// Cancelled returns the cancelled task IDs in deterministic order.
func (a *Assignment) Cancelled() []task.ID {
	var out []task.ID
	for i, l := range a.levels {
		if l == int8(costmodel.SubsystemNone) {
			out = append(out, a.ts.At(i).ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Equal reports whether both assignments place every task identically.
// Assignments over different task sets are never equal.
func (a *Assignment) Equal(b *Assignment) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, l := range a.levels {
		if a.ts.At(i).ID != b.ts.At(i).ID || l != b.levels[i] {
			return false
		}
	}
	return true
}

// Metrics summarizes an assignment under the analytic cost model. They are
// exactly the quantities the paper's evaluation plots: total energy
// (Figs. 2 and 5), average latency (Fig. 4), and the unsatisfied-task rate
// (Fig. 3), where a task is unsatisfied when its delay constraint cannot
// be met — including tasks the algorithm had to cancel.
type Metrics struct {
	NumTasks     int
	Cancelled    int
	Unsatisfied  int // deadline violations + cancellations
	TotalEnergy  units.Energy
	TotalLatency units.Duration // summed over placed tasks
	MaxLatency   units.Duration
	CountByLevel [4]int // indexed by Subsystem; level 0 counts cancellations
}

// MeanLatency returns the average latency over placed tasks (0 when none).
func (m *Metrics) MeanLatency() units.Duration {
	placed := m.NumTasks - m.Cancelled
	if placed == 0 {
		return 0
	}
	return m.TotalLatency / units.Duration(placed)
}

// UnsatisfiedRate returns the fraction of tasks whose deadline is not met.
func (m *Metrics) UnsatisfiedRate() float64 {
	if m.NumTasks == 0 {
		return 0
	}
	return float64(m.Unsatisfied) / float64(m.NumTasks)
}

// Evaluate computes the metrics of an assignment. Every task in ts must
// appear in the assignment (placed or cancelled).
func Evaluate(m *costmodel.Model, ts *task.Set, a *Assignment) (*Metrics, error) {
	out := &Metrics{NumTasks: ts.Len()}
	for i := 0; i < ts.Len(); i++ {
		t := ts.At(i)
		l, ok := a.LevelFor(ts, i)
		if !ok {
			return nil, fmt.Errorf("core: task %v missing from assignment", t.ID)
		}
		out.CountByLevel[l]++
		if l == costmodel.SubsystemNone {
			out.Cancelled++
			out.Unsatisfied++
			continue
		}
		st, err := m.Stages(t, l)
		if err != nil {
			return nil, err
		}
		c := st.Cost()
		out.TotalEnergy += c.Energy
		out.TotalLatency += c.Time
		if c.Time > out.MaxLatency {
			out.MaxLatency = c.Time
		}
		if c.Time > t.Deadline {
			out.Unsatisfied++
		}
	}
	return out, nil
}

// CheckFeasible verifies the HTA constraints C1–C5 against an assignment:
//
//	C1: every placed task meets its deadline,
//	C2: per-device resources   Σ_j C_ij·x_ij1 ≤ max_i,
//	C3: per-station resources  Σ_ij C_ij·x_ij2 ≤ max_S,
//	C4/C5: every task is placed on exactly one subsystem or cancelled.
//
// It returns nil when all constraints hold. Cancelled tasks are exempt
// from C1 (the paper's algorithms cancel exactly the tasks that cannot
// meet it).
func CheckFeasible(m *costmodel.Model, ts *task.Set, a *Assignment) error {
	sys := m.System()
	deviceLoad := make([]float64, sys.NumDevices())
	stationLoad := make([]float64, sys.NumStations())

	for i := 0; i < ts.Len(); i++ {
		t := ts.At(i)
		l, ok := a.LevelFor(ts, i)
		if !ok {
			return fmt.Errorf("core: task %v unassigned (violates C4)", t.ID)
		}
		switch l {
		case costmodel.SubsystemNone:
			continue
		case costmodel.SubsystemDevice, costmodel.SubsystemStation, costmodel.SubsystemCloud:
		default:
			return fmt.Errorf("core: task %v has invalid subsystem %d (violates C5)", t.ID, int(l))
		}
		st, err := m.Stages(t, l)
		if err != nil {
			return err
		}
		if got := st.Cost().Time; got > t.Deadline {
			return fmt.Errorf("core: task %v misses deadline on %v: %v > %v (violates C1)",
				t.ID, l, got, t.Deadline)
		}
		switch l {
		case costmodel.SubsystemDevice:
			deviceLoad[t.ID.User] += t.Resource
		case costmodel.SubsystemStation:
			st, err := sys.StationOf(t.ID.User)
			if err != nil {
				return err
			}
			stationLoad[st] += t.Resource
		}
	}

	const tol = 1e-9
	for i, load := range deviceLoad {
		if load > sys.Devices[i].ResourceCap+tol {
			return fmt.Errorf("core: device %d load %g exceeds cap %g (violates C2)",
				i, load, sys.Devices[i].ResourceCap)
		}
	}
	for s, load := range stationLoad {
		if load > sys.Stations[s].ResourceCap+tol {
			return fmt.Errorf("core: station %d load %g exceeds cap %g (violates C3)",
				s, load, sys.Stations[s].ResourceCap)
		}
	}
	return nil
}

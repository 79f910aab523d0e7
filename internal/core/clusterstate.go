package core

import (
	"fmt"
	"sort"

	"dsmec/internal/costmodel"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

// ClusterState is a mutable view of one cluster's LP-HTA problem. It
// accepts task arrivals, departures, and deadline changes between solves.
// Each task's solver constants are computed when it arrives or its
// deadline changes, and each device keeps its tasks in arrival order plus
// its two sorted segment lists, so a Solve runs the structured P2 solver
// (p2.go) with no per-call setup. Solve hands the solver the same list the
// batch LPHTA builds (devices in sys.Cluster order, tasks in arrival order
// within a device), and rounding and repair (Steps 2–6) run through the
// same roundAndRepair code, so a ClusterState holding the same tasks as a
// batch run produces the same assignment.
//
// ClusterState is not safe for concurrent use; callers shard by station
// and lock per shard.
type ClusterState struct {
	m       *costmodel.Model
	station int
	opts    LPHTAOptions

	devices []int      // sys.Cluster(station): device indices, ascending
	devs    []p2Device // one per entry of devices
	slots   []clusterSlot
	k       []p2Task // solver constants, indexed like slots
	slotOf  map[task.ID]int
	dead    int // removed slots not yet compacted away

	solver p2Solver
	// Solve's scratch.
	cts  []clusterTask
	pos  []int32 // slot -> index into cts
	frac [][3]float64
}

// clusterSlot tracks one task ever added to the cluster. The task is stored
// by value: callers may keep their copy in a growing arena whose backing
// array moves.
type clusterSlot struct {
	t    task.Task
	opts costmodel.Options
	dev  int32 // index into ClusterState.devs
	// cancelled marks a task no subsystem can serve within its deadline;
	// it mirrors the batch pre-cancellation and keeps the task out of the
	// LP.
	cancelled bool
	removed   bool
}

// ClusterPlacement is one task's placement in a ClusterResult
// (SubsystemNone = cancelled).
type ClusterPlacement struct {
	ID    task.ID
	Level costmodel.Subsystem
}

// ClusterResult is the outcome of one ClusterState.Solve, carrying the same
// per-cluster quantities a batch LPHTA run would contribute for this
// cluster.
type ClusterResult struct {
	// Placements lists every present (non-removed) task in arrival order.
	Placements []ClusterPlacement

	LPObjective     units.Energy
	RoundedEnergy   units.Energy
	Delta           units.Energy
	FractionalTasks int
	PreCancelled    int
}

// Level returns the placement for id, or (SubsystemNone, false) when the
// task is not in the result.
func (r *ClusterResult) Level(id task.ID) (costmodel.Subsystem, bool) {
	for _, p := range r.Placements {
		if p.ID == id {
			return p.Level, true
		}
	}
	return costmodel.SubsystemNone, false
}

// NewClusterState creates an empty state for one station's cluster.
func NewClusterState(m *costmodel.Model, station int, options *LPHTAOptions) (*ClusterState, error) {
	opts, err := options.withDefaults()
	if err != nil {
		return nil, err
	}
	devices, err := m.System().Cluster(station)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cs := &ClusterState{
		m:       m,
		station: station,
		opts:    opts,
		devices: devices,
		devs:    make([]p2Device, len(devices)),
		slotOf:  make(map[task.ID]int),
	}
	sys := m.System()
	for d, dev := range devices {
		cs.devs[d].cap = sys.Devices[dev].ResourceCap
	}
	return cs, nil
}

// Station returns the cluster's station index.
func (cs *ClusterState) Station() int { return cs.station }

// Len returns the number of present (non-removed) tasks, including
// cancelled ones.
func (cs *ClusterState) Len() int { return len(cs.slots) - cs.dead }

// TaskIDs returns the IDs of every present (non-removed) task in arrival
// order, including cancelled ones.
func (cs *ClusterState) TaskIDs() []task.ID {
	ids := make([]task.ID, 0, cs.Len())
	for si := range cs.slots {
		if !cs.slots[si].removed {
			ids = append(ids, cs.slots[si].t.ID)
		}
	}
	return ids
}

// AddTask admits one arriving task into the cluster. Tasks no subsystem can
// serve within their deadline are cancelled immediately, mirroring the
// batch pre-cancellation; everything else joins its device's lists.
func (cs *ClusterState) AddTask(t task.Task) error {
	if _, ok := cs.slotOf[t.ID]; ok {
		return fmt.Errorf("core: task %v already present", t.ID)
	}
	st, err := cs.m.System().StationOf(t.ID.User)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if st != cs.station {
		return fmt.Errorf("core: task %v belongs to station %d, not %d", t.ID, st, cs.station)
	}
	opts, err := cs.m.Eval(&t)
	if err != nil {
		return err
	}
	si := len(cs.slots)
	dev := int32(sort.SearchInts(cs.devices, t.ID.User))
	cs.slots = append(cs.slots, clusterSlot{t: t, opts: opts, dev: dev})
	cs.k = append(cs.k, p2Task{})
	cs.slotOf[t.ID] = si
	slot := &cs.slots[si]
	if !feasibleAnywhere(&slot.t, slot.opts) {
		slot.cancelled = true
		cs.opts.Obs.Counter("lphta.pre_cancelled").Inc()
		return nil
	}
	cs.attach(si)
	return nil
}

// attach computes slot si's solver constants and enters it into its
// device's lists.
func (cs *ClusterState) attach(si int) {
	slot := &cs.slots[si]
	cs.k[si] = newP2Task(&slot.t, slot.opts)
	d := &cs.devs[slot.dev]
	i := int32(si)
	at := sort.Search(len(d.tasks), func(n int) bool { return d.tasks[n] > i })
	d.tasks = append(d.tasks, 0)
	copy(d.tasks[at+1:], d.tasks[at:])
	d.tasks[at] = i
	if cs.k[si].c > 0 {
		d.byKs = insertSegment(d.byKs, cs.k, i, stationKey)
		d.byKc = insertSegment(d.byKc, cs.k, i, cloudKey)
	}
}

// detach takes slot si out of its device's lists.
func (cs *ClusterState) detach(si int) {
	d := &cs.devs[cs.slots[si].dev]
	i := int32(si)
	d.tasks = removeIndex(d.tasks, i)
	d.byKs = removeIndex(d.byKs, i)
	d.byKc = removeIndex(d.byKc, i)
}

// RemoveTask retires a departed (or completed) task. The state compacts
// its slots once removed ones outweigh present ones.
func (cs *ClusterState) RemoveTask(id task.ID) error {
	si, ok := cs.slotOf[id]
	if !ok {
		return fmt.Errorf("core: task %v not present", id)
	}
	slot := &cs.slots[si]
	slot.removed = true
	delete(cs.slotOf, id)
	if !slot.cancelled {
		cs.detach(si)
	}
	cs.dead++
	cs.maybeCompact()
	return nil
}

// SetDeadline changes one task's deadline and refreshes its solver
// constants. Tightening past the point where no subsystem can serve the
// task cancels it (as batch pre-cancellation would); loosening a
// cancelled task's deadline revives it.
func (cs *ClusterState) SetDeadline(id task.ID, deadline units.Duration) error {
	si, ok := cs.slotOf[id]
	if !ok {
		return fmt.Errorf("core: task %v not present", id)
	}
	slot := &cs.slots[si]
	slot.t.Deadline = deadline
	if !feasibleAnywhere(&slot.t, slot.opts) {
		if !slot.cancelled {
			slot.cancelled = true
			cs.opts.Obs.Counter("lphta.pre_cancelled").Inc()
			cs.detach(si)
		}
		return nil
	}
	if slot.cancelled {
		slot.cancelled = false
		cs.attach(si)
		return nil
	}
	// The segment ratios depend on costs and demand only, so the sorted
	// lists stay valid; the bounds change.
	cs.k[si] = newP2Task(&slot.t, slot.opts)
	return nil
}

// maybeCompact drops removed slots once they outnumber present ones (and
// there are enough of them to matter). Relative order is kept, so the
// device lists stay in arrival and ratio order.
func (cs *ClusterState) maybeCompact() {
	if cs.dead <= 16 || cs.dead <= cs.Len() {
		return
	}
	remap := make([]int32, len(cs.slots)) // old slot -> new slot
	n := 0
	for si := range cs.slots {
		if cs.slots[si].removed {
			continue
		}
		remap[si] = int32(n)
		cs.slots[n], cs.k[n] = cs.slots[si], cs.k[si]
		cs.slotOf[cs.slots[n].t.ID] = n
		n++
	}
	for si := n; si < len(cs.slots); si++ {
		cs.slots[si] = clusterSlot{}
	}
	cs.slots, cs.k = cs.slots[:n], cs.k[:n]
	for d := range cs.devs {
		dev := &cs.devs[d]
		for _, list := range [3][]int32{dev.tasks, dev.byKs, dev.byKc} {
			for j, i := range list {
				list[j] = remap[i]
			}
		}
	}
	cs.dead = 0
}

// Solve solves the cluster relaxation from scratch and runs rounding and
// repair, returning the cluster's assignment and Theorem 2 quantities. The
// batch infeasibility fallback is preserved: if deadline bounds and caps
// conflict, the deadline-derived bounds are relaxed for this solve only.
func (cs *ClusterState) Solve() (*ClusterResult, error) {
	res := &ClusterResult{}
	cts := cs.cts[:0]
	if cap(cs.pos) < len(cs.slots) {
		cs.pos = make([]int32, len(cs.slots))
	}
	cs.pos = cs.pos[:len(cs.slots)]
	for si := range cs.slots {
		slot := &cs.slots[si]
		if slot.removed {
			continue
		}
		if slot.cancelled {
			res.PreCancelled++
			continue
		}
		cs.pos[si] = int32(len(cts))
		cts = append(cts, clusterTask{t: &slot.t, idx: int32(si), opts: slot.opts})
	}
	cs.cts = cts

	out := &clusterOutcome{}
	if len(cts) > 0 {
		sys := cs.m.System()
		sol, err := cs.solver.solveCluster(cs.k, cs.devs, sys.Stations[cs.station].ResourceCap, cs.station, len(cts), cs.opts.Obs)
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d %w", cs.station, err)
		}
		frac := cs.frac[:0]
		for _, ct := range cts {
			frac = append(frac, sol.x[ct.idx])
		}
		cs.frac = frac
		res.LPObjective = units.Energy(sol.obj)

		roundAndRepair(sys, cs.station, cts, frac, cs.devs, cs.pos, cs.opts, out)
		res.FractionalTasks = out.fractional
		for _, e := range out.rounded {
			res.RoundedEnergy += e
		}
		if out.delta > 0 {
			res.Delta = out.delta
		}
	}

	// out.placements follows cts, which follows the present, uncancelled
	// slots in order.
	res.Placements = make([]ClusterPlacement, 0, cs.Len())
	next := 0
	for si := range cs.slots {
		slot := &cs.slots[si]
		if slot.removed {
			continue
		}
		l := costmodel.SubsystemNone
		if !slot.cancelled {
			l = out.placements[next].level
			next++
		}
		res.Placements = append(res.Placements, ClusterPlacement{ID: slot.t.ID, Level: l})
	}
	return res, nil
}

package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"dsmec/internal/costmodel"
	"dsmec/internal/mecnet"
	"dsmec/internal/obs"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

// Rounding selects how Step 3 converts the fractional LP solution into a
// tentative integral assignment.
type Rounding int

// Rounding rules.
const (
	// RoundLargestFraction is the paper's rule: pick
	// q = argmax_l X[i,j,l].
	RoundLargestFraction Rounding = iota + 1
	// RoundRandomized samples l with probability X[i,j,l]; an ablation.
	RoundRandomized
)

// RepairOrder selects which tasks the Steps 5–6 greedy migrations move
// first.
type RepairOrder int

// Repair orders.
const (
	// RepairLargestFirst is the paper's rule: migrate/cancel the tasks
	// occupying the most resources first.
	RepairLargestFirst RepairOrder = iota + 1
	// RepairSmallestFirst moves the cheapest tasks first; an ablation.
	RepairSmallestFirst
)

// LPHTAOptions tunes the algorithm; the zero value gives the paper's
// configuration.
type LPHTAOptions struct {
	Rounding Rounding
	Repair   RepairOrder
	// Rand is required only for RoundRandomized.
	Rand *rand.Rand
	// Parallelism bounds how many clusters are solved concurrently. The
	// paper's decomposition argument (Section III) makes clusters
	// independent, so they parallelize without changing any result:
	// outcomes are merged in station order regardless of worker count.
	// Zero means GOMAXPROCS; 1 solves sequentially. RoundRandomized
	// consumes a single shared Rand stream and therefore always runs
	// sequentially.
	Parallelism int
	// Obs selects where metrics and trace spans are recorded. The zero
	// value records metrics to the process-wide obs registry (if any)
	// and disables tracing.
	Obs obs.Instruments
}

func (o *LPHTAOptions) withDefaults() (LPHTAOptions, error) {
	out := LPHTAOptions{Rounding: RoundLargestFraction, Repair: RepairLargestFirst}
	if o != nil {
		if o.Rounding != 0 {
			out.Rounding = o.Rounding
		}
		if o.Repair != 0 {
			out.Repair = o.Repair
		}
		out.Rand = o.Rand
		out.Obs = o.Obs
		out.Parallelism = o.Parallelism
	}
	if out.Rounding == RoundRandomized && out.Rand == nil {
		return out, fmt.Errorf("core: randomized rounding requires a rand source")
	}
	if out.Parallelism <= 0 {
		out.Parallelism = runtime.GOMAXPROCS(0)
	}
	if out.Rounding == RoundRandomized {
		out.Parallelism = 1
	}
	return out, nil
}

// HTAResult is the outcome of LP-HTA, including the quantities that appear
// in the Theorem 2 ratio bound R ≤ 3 + Δ/E_LP^OPT.
type HTAResult struct {
	Assignment *Assignment

	// LPObjective is E_LP^OPT: the optimal value of the relaxation P2,
	// summed over clusters.
	LPObjective units.Energy
	// RoundedEnergy is the energy of the Step 3 integral solution x̂
	// before any repair.
	RoundedEnergy units.Energy
	// Delta is the energy growth caused by the Steps 4–6 migrations,
	// measured over tasks that remain placed.
	Delta units.Energy
	// FractionalTasks counts tasks whose LP solution was not already
	// integral.
	FractionalTasks int
	// PreCancelled counts tasks cancelled before the LP because no
	// subsystem could meet their deadline at all.
	PreCancelled int
}

// RatioBoundEstimate returns the Theorem 2 upper bound 3 + Δ/E_LP^OPT
// computed from the run (infinite when the LP optimum is zero).
func (r *HTAResult) RatioBoundEstimate() float64 {
	if r.LPObjective <= 0 {
		return math.Inf(1)
	}
	return 3 + float64(r.Delta)/float64(r.LPObjective)
}

// clusterTask carries one task plus its evaluated per-subsystem costs
// through the per-cluster pipeline. idx is the task's dense index in the
// set arena; t points into that arena (stable while LPHTA runs, since
// the set is not mutated).
type clusterTask struct {
	t    *task.Task
	idx  int32
	opts costmodel.Options
}

// taskPlacement is one task's final placement (SubsystemNone = cancelled),
// keyed by its dense arena index.
type taskPlacement struct {
	idx   int32
	level costmodel.Subsystem
}

// clusterOutcome is everything one cluster contributes to the HTAResult.
// Workers fill outcomes independently; the merge walks them in station
// order, task by task, so the accumulated floating-point sums are
// byte-identical to a sequential run regardless of worker count.
type clusterOutcome struct {
	placements   []taskPlacement
	rounded      []units.Energy // Step 3 energy per surviving task, input order
	lpObjective  units.Energy
	delta        units.Energy
	fractional   int
	preCancelled int
}

// LPHTA runs the Holistic Task Assignment algorithm of Section III on the
// whole system, treating each cluster independently (as the paper argues
// is possible, since a task can only run on its own device, its own
// station, or the cloud). Clusters are solved over a bounded worker pool
// sized by LPHTAOptions.Parallelism.
func LPHTA(m *costmodel.Model, ts *task.Set, options *LPHTAOptions) (*HTAResult, error) {
	opts, err := options.withDefaults()
	if err != nil {
		return nil, err
	}
	span := opts.Obs.Span.Child("lphta")
	defer span.End()
	span.Annotate("tasks", ts.Len())
	opts.Obs.Counter("lphta.runs").Inc()
	opts.Obs.Counter("lphta.tasks").Add(int64(ts.Len()))

	sys := m.System()
	res := &HTAResult{Assignment: NewAssignment(ts)}

	// Group task arena indices per cluster via their raising device.
	perCluster := make([][]int32, sys.NumStations())
	for i := 0; i < ts.Len(); i++ {
		st, err := sys.StationOf(ts.At(i).ID.User)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		perCluster[st] = append(perCluster[st], int32(i))
	}
	type cluster struct {
		station int
		tasks   []int32
	}
	var clusters []cluster
	for st, tasks := range perCluster {
		if len(tasks) > 0 {
			clusters = append(clusters, cluster{station: st, tasks: tasks})
		}
	}

	workers := opts.Parallelism
	if workers > len(clusters) {
		workers = len(clusters)
	}
	span.Annotate("clusters", len(clusters))
	span.Annotate("workers", workers)

	clusterSeconds := opts.Obs.Histogram("lphta.cluster_seconds", obs.TimeBuckets)
	clusterTasks := opts.Obs.Histogram("lphta.cluster_tasks", obs.CountBuckets)
	runCluster := func(ci int, sc *clusterScratch) (*clusterOutcome, error) {
		c := clusters[ci]
		opts.Obs.Counter("lphta.clusters").Inc()
		clusterTasks.Observe(float64(len(c.tasks)))
		var cspan *obs.Span
		if workers > 1 {
			// Concurrent siblings cannot share the parent's trace track.
			cspan = span.Fork("lphta.cluster")
		} else {
			cspan = span.Child("lphta.cluster")
		}
		cspan.Annotate("station", c.station)
		cspan.Annotate("tasks", len(c.tasks))
		copts := opts
		copts.Obs = opts.Obs.WithSpan(cspan)
		timer := obs.StartTimer()
		out, err := lphtaCluster(m, ts, c.station, c.tasks, copts, sc)
		elapsed := timer.Seconds()
		clusterSeconds.Observe(elapsed)
		cspan.End()
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d: %w", c.station, err)
		}
		if log := opts.Obs.Logger(); log.Enabled(obs.LevelDebug) {
			log.Debug("lphta cluster done",
				"station", c.station,
				"tasks", len(c.tasks),
				"fractional", out.fractional,
				"pre_cancelled", out.preCancelled,
				"seconds", elapsed)
		}
		return out, nil
	}

	outcomes := make([]*clusterOutcome, len(clusters))
	errs := make([]error, len(clusters))
	if workers <= 1 {
		sc := &clusterScratch{}
		for ci := range clusters {
			outcomes[ci], errs[ci] = runCluster(ci, sc)
			if errs[ci] != nil {
				return nil, errs[ci]
			}
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := &clusterScratch{}
				for ci := range idx {
					outcomes[ci], errs[ci] = runCluster(ci, sc)
				}
			}()
		}
		for ci := range clusters {
			idx <- ci
		}
		close(idx)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	// Merge in station order: the accumulation sequence is exactly the
	// sequential one, so output does not depend on the worker count.
	for _, o := range outcomes {
		res.LPObjective += o.lpObjective
		res.FractionalTasks += o.fractional
		res.PreCancelled += o.preCancelled
		for _, e := range o.rounded {
			res.RoundedEnergy += e
		}
		if o.delta > 0 {
			res.Delta += o.delta
		}
		for _, p := range o.placements {
			res.Assignment.PlaceAt(int(p.idx), p.level)
		}
	}
	span.Annotate("fractional_tasks", res.FractionalTasks)
	return res, nil
}

// lphtaCluster runs Steps 1–6 for one cluster and returns its outcome.
// tasks holds the cluster's dense indices into the set arena; sc is the
// calling worker's scratch.
func lphtaCluster(m *costmodel.Model, ts *task.Set, station int, tasks []int32, opts LPHTAOptions, sc *clusterScratch) (*clusterOutcome, error) {
	sys := m.System()
	out := &clusterOutcome{placements: make([]taskPlacement, 0, len(tasks))}

	// Evaluate costs, cancelling upfront any task no subsystem can serve
	// within its deadline (the LP would be infeasible with it, and Step 4
	// would cancel it anyway).
	cts := make([]clusterTask, 0, len(tasks))
	for _, ti := range tasks {
		t := ts.At(int(ti))
		o, err := m.Eval(t)
		if err != nil {
			return nil, err
		}
		if !feasibleAnywhere(t, o) {
			out.placements = append(out.placements, taskPlacement{idx: ti, level: costmodel.SubsystemNone})
			out.preCancelled++
			opts.Obs.Counter("lphta.pre_cancelled").Inc()
			continue
		}
		cts = append(cts, clusterTask{t: t, idx: ti, opts: o})
	}
	if len(cts) == 0 {
		return out, nil
	}

	// Step 1: build and solve the relaxation P2.
	sol, err := sc.solveClusterLP(sys, station, cts, opts.Obs)
	if err != nil {
		return nil, err
	}
	out.lpObjective = units.Energy(sol.obj)

	roundAndRepair(sys, station, cts, sol.x, sc.devs, nil, opts, out)
	return out, nil
}

// roundAndRepair runs Steps 2–6 of LP-HTA for one cluster: round the
// fractional solution to x̂, repair deadline violations, then repair device
// and station capacity overloads. It appends the surviving placements and
// accumulates rounded energy, Δ, and the fractional-task count into out.
// Both the batch path (lphtaCluster) and the online path
// (ClusterState.Solve) share this code, so equal fractional solutions
// produce byte-identical assignments. devs is the solver's device
// grouping; pos maps its task indices to indices into cts (nil when they
// are the same).
func roundAndRepair(sys *mecnet.System, station int, cts []clusterTask, frac [][3]float64, devs []p2Device, pos []int32, opts LPHTAOptions, out *clusterOutcome) {
	// Steps 2–3: round to x̂.
	rspan := opts.Obs.Span.Child("lphta.round")
	roundTimer := obs.StartTimer()
	chosen := make([]costmodel.Subsystem, len(cts))
	out.rounded = make([]units.Energy, len(cts))
	for i := range cts {
		x := frac[i]
		if !isIntegral(x) {
			out.fractional++
		}
		switch opts.Rounding {
		case RoundRandomized:
			chosen[i] = sampleLevel(opts.Rand, x)
		default:
			chosen[i] = argmaxLevel(x)
		}
		out.rounded[i] = cts[i].opts.At(chosen[i]).Energy
	}
	opts.Obs.Counter("lphta.fractional_tasks").Add(int64(out.fractional))
	opts.Obs.Histogram("lphta.stage_seconds.round", obs.TimeBuckets).Observe(roundTimer.Seconds())
	rspan.Annotate("tasks", len(cts))
	rspan.Annotate("fractional", out.fractional)
	rspan.End()

	pspan := opts.Obs.Span.Child("lphta.repair")
	repairTimer := obs.StartTimer()
	defer func() {
		opts.Obs.Histogram("lphta.stage_seconds.repair", obs.TimeBuckets).Observe(repairTimer.Seconds())
		pspan.End()
	}()

	// Step 4: deadline repair.
	for i, ct := range cts {
		if ct.opts.At(chosen[i]).Time <= ct.t.Deadline {
			continue
		}
		best := costmodel.SubsystemNone
		bestFrac := -1.0
		for li, l := range costmodel.Subsystems {
			if ct.opts.At(l).Time <= ct.t.Deadline && frac[i][li] > bestFrac {
				best, bestFrac = l, frac[i][li]
			}
		}
		// A feasible subsystem always exists here: infeasible-everywhere
		// tasks were cancelled before the LP.
		chosen[i] = best
		opts.Obs.Counter("lphta.deadline_repairs").Inc()
	}

	// The migration order comparator is shared by Steps 5 and 6; one
	// sorter's scratch slice is reused across every overloaded device.
	sorter := repairSorter{cts: cts, order: opts.Repair}

	// Step 5: per-device capacity repair (device → station → cancel).
	var idxs []int
	for d := range devs {
		idxs = idxs[:0]
		load := 0.0
		for _, k := range devs[d].tasks {
			i := int(k)
			if pos != nil {
				i = int(pos[k])
			}
			if chosen[i] == costmodel.SubsystemDevice {
				idxs = append(idxs, i)
				load += cts[i].t.Resource
			}
		}
		cap := devs[d].cap
		if load <= cap {
			continue
		}
		order := sorter.sorted(idxs)
		// First pass: migrate station-feasible tasks.
		for _, i := range order {
			if load <= cap {
				break
			}
			if cts[i].opts.At(costmodel.SubsystemStation).Time <= cts[i].t.Deadline {
				chosen[i] = costmodel.SubsystemStation
				load -= cts[i].t.Resource
				opts.Obs.Counter("lphta.device_migrations").Inc()
			}
		}
		// Second pass: cancel what still does not fit.
		for _, i := range order {
			if load <= cap {
				break
			}
			if chosen[i] == costmodel.SubsystemDevice {
				chosen[i] = costmodel.SubsystemNone
				load -= cts[i].t.Resource
				opts.Obs.Counter("lphta.device_cancellations").Inc()
			}
		}
	}

	// Step 6: station capacity repair (station → cloud → cancel).
	var stationIdxs []int
	stationLoad := 0.0
	for i := range cts {
		if chosen[i] == costmodel.SubsystemStation {
			stationIdxs = append(stationIdxs, i)
			stationLoad += cts[i].t.Resource
		}
	}
	if cap := sys.Stations[station].ResourceCap; stationLoad > cap {
		order := sorter.sorted(stationIdxs)
		for _, i := range order {
			if stationLoad <= cap {
				break
			}
			if cts[i].opts.At(costmodel.SubsystemCloud).Time <= cts[i].t.Deadline {
				chosen[i] = costmodel.SubsystemCloud
				stationLoad -= cts[i].t.Resource
				opts.Obs.Counter("lphta.station_migrations").Inc()
			}
		}
		for _, i := range order {
			if stationLoad <= cap {
				break
			}
			if chosen[i] == costmodel.SubsystemStation {
				chosen[i] = costmodel.SubsystemNone
				stationLoad -= cts[i].t.Resource
				opts.Obs.Counter("lphta.station_cancellations").Inc()
			}
		}
	}

	// Record the final assignment and Δ, the energy growth the Steps 4–6
	// migrations caused relative to the Step 3 rounding (over tasks that
	// remain placed).
	for i, ct := range cts {
		l := chosen[i]
		out.placements = append(out.placements, taskPlacement{idx: ct.idx, level: l})
		if l == costmodel.SubsystemNone {
			continue
		}
		step3 := ct.opts.At(argmaxLevel(frac[i])).Energy
		out.delta += ct.opts.At(l).Energy - step3
	}
}

// feasibleAnywhere reports whether at least one subsystem can serve the
// task within its deadline; tasks failing this are cancelled before the LP.
func feasibleAnywhere(t *task.Task, o costmodel.Options) bool {
	for _, l := range costmodel.Subsystems {
		if o.At(l).Time <= t.Deadline {
			return true
		}
	}
	return false
}

// taskBounds returns the deadline-derived variable upper bound (C1 folded
// into the relaxed C5 bound) and the reachability flag per subsystem for one
// evaluated task. Only newP2Task calls it, so the batch path and
// ClusterState derive identical bounds.
func taskBounds(t *task.Task, o costmodel.Options) (bounds [3]float64, reach [3]bool) {
	for li, l := range costmodel.Subsystems {
		c := o.At(l)
		bound := 1.0
		if !c.Time.IsFinite() {
			bound = 0
		} else {
			reach[li] = true
			if c.Time > 0 {
				// t_ijl·x ≤ T_ij  ⇒  x ≤ T_ij/t_ijl.
				if b := float64(t.Deadline) / float64(c.Time); b < bound {
					bound = b
				}
			}
		}
		bounds[li] = bound
	}
	return bounds, reach
}

// clusterScratch is one batch worker's buffers for the cluster LP: the
// task constants, the device grouping and the solver. Nothing in it
// outlives the cluster being solved.
type clusterScratch struct {
	k      []p2Task
	order  []int32
	sorted []int32
	devs   []p2Device
	solver p2Solver
}

// solveClusterLP builds and solves the relaxation P2 for one cluster:
//
//	min  Σ E_ijl·x_ijl
//	s.t. x_ijl ≤ T_ij/t_ijl             (C1, folded into variable bounds)
//	     Σ_j C_ij·x_ij1 ≤ max_i         (C2, one row per device)
//	     Σ_ij C_ij·x_ij2 ≤ max_S        (C3)
//	     Σ_l x_ijl = 1                  (C4)
//	     0 ≤ x_ijl ≤ 1                  (relaxed C5)
//
// with the structured solver (p2.go). The build groups the tasks by
// device in sys.Cluster order (ascending device index), in arena order
// within a device, the same list ClusterState keeps, and sorts each
// device's two segment lists. The solution's x is indexed like cts.
func (sc *clusterScratch) solveClusterLP(sys *mecnet.System, station int, cts []clusterTask, ins obs.Instruments) (*p2Solution, error) {
	buildTimer := obs.StartTimer()
	sc.k = sc.k[:0]
	sc.order = sc.order[:0]
	for i := range cts {
		sc.k = append(sc.k, newP2Task(cts[i].t, cts[i].opts))
		sc.order = append(sc.order, int32(i))
	}
	slices.SortStableFunc(sc.order, func(a, b int32) int {
		return cmp.Compare(cts[a].t.ID.User, cts[b].t.ID.User)
	})
	if cap(sc.sorted) < 2*len(cts) {
		sc.sorted = make([]int32, 0, 2*len(cts))
	}
	sorted := sc.sorted[:0]
	sc.devs = sc.devs[:0]
	k := sc.k
	for start := 0; start < len(sc.order); {
		dev := cts[sc.order[start]].t.ID.User
		end := start + 1
		for end < len(sc.order) && cts[sc.order[end]].t.ID.User == dev {
			end++
		}
		group := sc.order[start:end]
		d := p2Device{cap: sys.Devices[dev].ResourceCap, tasks: group}
		sorted, d.byKs = appendSegments(sorted, k, group, stationKey)
		sorted, d.byKc = appendSegments(sorted, k, group, cloudKey)
		sc.devs = append(sc.devs, d)
		start = end
	}
	ins.Histogram("lphta.stage_seconds.build", obs.TimeBuckets).Observe(buildTimer.Seconds())

	solveTimer := obs.StartTimer()
	sol, err := sc.solver.solveCluster(k, sc.devs, sys.Stations[station].ResourceCap, station, len(cts), ins)
	if err != nil {
		return nil, err
	}
	ins.Histogram("lphta.stage_seconds.solve", obs.TimeBuckets).Observe(solveTimer.Seconds())
	return sol, nil
}

// isIntegral reports whether a fractional task assignment is already 0/1.
func isIntegral(x [3]float64) bool {
	const tol = 1e-6
	for _, v := range x {
		if v > tol && v < 1-tol {
			return false
		}
	}
	return true
}

// argmaxLevel implements the paper's Step 3 choice q = argmax_l X[i,j,l];
// ties break toward the cheaper (lower) level, matching the energy
// ordering E_ij1 < E_ij2 < E_ij3 of typical instances.
func argmaxLevel(x [3]float64) costmodel.Subsystem {
	best := 0
	for l := 1; l < 3; l++ {
		if x[l] > x[best] {
			best = l
		}
	}
	return costmodel.Subsystems[best]
}

// sampleLevel draws l with probability proportional to X[i,j,l].
func sampleLevel(r *rand.Rand, x [3]float64) costmodel.Subsystem {
	total := x[0] + x[1] + x[2]
	if total <= 0 {
		return costmodel.SubsystemDevice
	}
	u := r.Float64() * total
	switch {
	case u < x[0]:
		return costmodel.SubsystemDevice
	case u < x[0]+x[1]:
		return costmodel.SubsystemStation
	default:
		return costmodel.SubsystemCloud
	}
}

// repairSorter orders task indices for repair migration: largest C_ij
// first for the paper's rule, smallest first for the ablation. Ties break
// by task ID for determinism. One sorter serves every overloaded device of
// a cluster, reusing its scratch slice instead of re-allocating and
// re-capturing a comparator per sort.
type repairSorter struct {
	cts     []clusterTask
	order   RepairOrder
	scratch []int
}

// sorted returns idxs in migration order. The result aliases the sorter's
// scratch slice and is valid until the next call.
func (s *repairSorter) sorted(idxs []int) []int {
	s.scratch = append(s.scratch[:0], idxs...)
	sort.Sort(s)
	return s.scratch
}

func (s *repairSorter) Len() int { return len(s.scratch) }

func (s *repairSorter) Swap(i, j int) {
	s.scratch[i], s.scratch[j] = s.scratch[j], s.scratch[i]
}

func (s *repairSorter) Less(i, j int) bool {
	ra, rb := s.cts[s.scratch[i]].t.Resource, s.cts[s.scratch[j]].t.Resource
	// Sort comparators need exact equality: a tolerance here would break
	// the strict weak ordering (transitivity) that sort.Sort requires.
	//meclint:allow(floatcmp) comparator tie-break needs exact equality for a strict weak ordering
	if ra != rb {
		if s.order == RepairSmallestFirst {
			return ra < rb
		}
		return ra > rb
	}
	return s.cts[s.scratch[i]].t.ID.Less(s.cts[s.scratch[j]].t.ID)
}

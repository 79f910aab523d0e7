package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"dsmec/internal/costmodel"
	"dsmec/internal/obs"
	"dsmec/internal/task"
)

// This file is the exact structured solver for one cluster's relaxation
// P2 (see solveClusterLP for the program). Apart from variable bounds, C3
// is the only row that couples devices. Pricing it with one multiplier
// μ ≥ 0 turns the rest into one fractional knapsack per device:
//
//   - At μ, the station option of task j costs E2 + μ·C. With x1 at its
//     forced minimum lo = max(0, 1-u2-u3), the remaining mass goes to the
//     cheaper off-device option up to its bound, the rest to the dearer.
//   - Raising x1 spends C per unit of the device's C2 capacity. It first
//     replaces the dearer off-device option, then the cheaper one: at most
//     two segments per task, with ratios (E2+μC-E1)/C = ks+μ and
//     (E3-E1)/C = kc. Dantzig's greedy rule takes the segments by ratio,
//     best first, while the ratio is positive and capacity lasts. Station
//     segments shift uniformly with μ, so each device keeps its two
//     segment lists sorted once and merges them per evaluation.
//
// Station load L(μ) and the solution x(μ) are step functions of μ. The
// dual g(μ) is concave and piecewise linear, and each evaluated piece
// gives a supporting line obj + μ(L - max_S). The search brackets μ*
// between a piece with L > max_S and one with L ≤ max_S (μ = +∞ at the
// start) and evaluates where their lines cross (1-D cutting planes). It
// stops when that evaluation returns one of the two bracket pieces: both
// then minimize the Lagrangian at the crossing, which is μ*, and the
// optimum mixes them so that C3 is tight.
//
// Ties are broken so that a breakpoint evaluates to the piece on its left
// (the one with more station load):
//
//   - E2 + μC = E3 (tested as ks+μ ≤ kc): the station is the cheaper
//     off-device option, and its replacement segment comes second;
//   - equal segment ratios: a cloud segment goes before a station
//     segment, and two segments of one list go in arrival order;
//   - zero savings: a segment whose ratio is not positive is not taken,
//     and a resource-free task (C = 0) moves to the device only when E1
//     is strictly cheaper.
//
// Where the optimum is a face rather than a vertex, the point returned is
// the one mix of the two bracket pieces that makes C3 tight: every task
// whose fractions differ between the pieces gets the same share θ of the
// left piece. With one breakpoint at μ* that mix is a vertex.
//
// The answer is a pure function of the device list and its task order:
// every sum runs device by device and in arrival order within a device,
// and the search is never warm-started.

// p2Task holds one task's constants for the structured solver. They
// depend only on the task's costs, deadline and resource demand, so
// callers compute them once per task and deadline.
type p2Task struct {
	e     [3]float64 // E_ij1, E_ij2, E_ij3
	u     [3]float64 // upper bounds: C1 folded into the relaxed C5
	reach [3]bool    // subsystems that can serve the task at all
	c     float64    // C_ij
	lo    float64    // forced device fraction max(0, 1-u2-u3)
	ks    float64    // (E2-E1)/C: the station segment's ratio at μ = 0
	kc    float64    // (E3-E1)/C: the cloud segment's ratio
}

// newP2Task derives a task's solver constants from its evaluated costs.
func newP2Task(t *task.Task, o costmodel.Options) p2Task {
	bounds, reach := taskBounds(t, o)
	k := p2Task{reach: reach, c: t.Resource}
	for li, l := range costmodel.Subsystems {
		k.e[li] = float64(o.At(l).Energy)
	}
	k.setBounds(bounds)
	if k.c > 0 {
		k.ks = (k.e[1] - k.e[0]) / k.c
		k.kc = (k.e[2] - k.e[0]) / k.c
	}
	return k
}

func (k *p2Task) setBounds(u [3]float64) {
	k.u = u
	k.lo = math.Max(0, 1-u[1]-u[2])
}

// relaxed returns the constants with every deadline-derived bound lifted
// to 1. Unreachable subsystems keep their zero bound.
func (k p2Task) relaxed() p2Task {
	var u [3]float64
	for l, ok := range k.reach {
		if ok {
			u[l] = 1
		}
	}
	k.setBounds(u)
	return k
}

// p2Device is one device of the cluster: its C2 capacity max_i and its
// tasks, as indices into the task constants. byKs and byKc hold the tasks
// with C > 0, sorted by ks and by kc, best first, ties in arrival order.
type p2Device struct {
	cap   float64
	tasks []int32 // arrival order
	byKs  []int32
	byKc  []int32
}

// Segment-list keys: the station segment's ratio at μ = 0 and the cloud
// segment's ratio.
func stationKey(t *p2Task) float64 { return t.ks }
func cloudKey(t *p2Task) float64   { return t.kc }

// segBefore orders two tasks of one segment list: higher ratio first,
// then arrival order (ascending index).
func segBefore(k []p2Task, key func(*p2Task) float64, a, b int32) bool {
	ka, kb := key(&k[a]), key(&k[b])
	if ka > kb {
		return true
	}
	if ka < kb {
		return false
	}
	return a < b
}

// appendSegments appends group's tasks with C > 0 to dst, sorts the
// appended run by key, and returns dst and the run.
func appendSegments(dst []int32, k []p2Task, group []int32, key func(*p2Task) float64) (all, run []int32) {
	at := len(dst)
	for _, i := range group {
		if k[i].c > 0 {
			dst = append(dst, i)
		}
	}
	run = dst[at:len(dst):len(dst)]
	slices.SortFunc(run, func(a, b int32) int {
		if segBefore(k, key, a, b) {
			return -1
		}
		return 1
	})
	return dst, run
}

// insertSegment inserts task i into list, which is sorted by segBefore.
func insertSegment(list []int32, k []p2Task, i int32, key func(*p2Task) float64) []int32 {
	at := len(list)
	for at > 0 && segBefore(k, key, i, list[at-1]) {
		at--
	}
	list = append(list, 0)
	copy(list[at+1:], list[at:])
	list[at] = i
	return list
}

// removeIndex deletes the first occurrence of i from list, keeping order.
func removeIndex(list []int32, i int32) []int32 {
	for at, v := range list {
		if v == i {
			return append(list[:at], list[at+1:]...)
		}
	}
	return list
}

// Segment states in a piece code: bits 1–2 for the station segment, bits
// 3–4 for the cloud segment, bit 0 set when the station is the cheaper
// off-device option.
const (
	codeStationFirst = 1 << 0
	segPartial       = 1
	segFull          = 2
)

func segShift(l int) uint8 { return uint8(2*l - 1) }

// p2Piece is the greedy's answer at one price: one piece of x(μ).
type p2Piece struct {
	x    [][3]float64 // indexed like the task constants
	code []uint8      // per task: the piece's structure
	lam  []float64    // per device: the C2 price at this μ
	obj  float64      // Σ E·x
	load float64      // Σ C·x2, the C3 row
}

func (p *p2Piece) size(tasks, devices int) {
	if cap(p.x) < tasks {
		p.x = make([][3]float64, tasks)
		p.code = make([]uint8, tasks)
	}
	p.x, p.code = p.x[:tasks], p.code[:tasks]
	if cap(p.lam) < devices {
		p.lam = make([]float64, devices)
	}
	p.lam = p.lam[:devices]
}

// p2Solver is one worker's scratch for the structured solver. It holds
// no answer between solves.
type p2Solver struct {
	pieces  [3]p2Piece
	head    []float64 // per task: device headroom left during an evaluation
	forced  []float64 // per device: Σ C·lo
	relaxed []p2Task
}

// p2Solution is one solve's answer. x and lam alias the solver's scratch
// and stay valid until its next solve.
type p2Solution struct {
	x     [][3]float64 // per task, indexed like the constants
	obj   float64      // Σ E·x, in list order
	mu    float64      // the C3 price μ*
	lam   []float64    // per device: the C2 price
	evals int          // greedy evaluations
}

// errP2Infeasible reports that the relaxation has no feasible point.
var errP2Infeasible = errors.New("infeasible")

// p2MaxEvals bounds the price search. The number of pieces is finite and
// each step finds a new one, so the bound only guards against a defect.
const p2MaxEvals = 1000

// solve runs the price search. It returns errP2Infeasible when P2 has no
// feasible point: a task's bounds sum below 1, a device's forced load is
// above max_i, or the station load as μ → ∞ is still above max_S.
func (s *p2Solver) solve(k []p2Task, devs []p2Device, capS float64) (*p2Solution, error) {
	if cap(s.head) < len(k) {
		s.head = make([]float64, len(k))
	}
	s.head = s.head[:len(k)]
	if cap(s.forced) < len(devs) {
		s.forced = make([]float64, len(devs))
	}
	s.forced = s.forced[:len(devs)]
	for d := range devs {
		f := 0.0
		for _, i := range devs[d].tasks {
			t := &k[i]
			for _, e := range t.e {
				if math.IsNaN(e) || math.IsInf(e, 0) {
					return nil, fmt.Errorf("task energy %g is not finite", e)
				}
			}
			if t.lo > t.u[0] {
				return nil, errP2Infeasible
			}
			f += t.c * t.lo
		}
		if f > devs[d].cap {
			return nil, errP2Infeasible
		}
		s.forced[d] = f
	}
	for i := range s.pieces {
		s.pieces[i].size(len(k), len(devs))
	}

	left, right, cur := &s.pieces[0], &s.pieces[1], &s.pieces[2]
	sol := &p2Solution{}
	s.eval(k, devs, 0, left)
	sol.evals++
	if left.load <= capS {
		sol.x, sol.obj, sol.lam = left.x, left.obj, left.lam
		return sol, nil
	}
	s.eval(k, devs, math.Inf(1), right)
	sol.evals++
	if right.load > capS {
		return nil, errP2Infeasible
	}
	muL, muR := 0.0, math.Inf(1)
	for {
		if sol.evals >= p2MaxEvals {
			return nil, fmt.Errorf("price search did not converge in %d evaluations", sol.evals)
		}
		// The lines obj + μ(load - max_S) of the two bracket pieces cross
		// here; left.load > max_S ≥ right.load keeps the slope gap positive.
		mu := (right.obj - left.obj) / (left.load - right.load)
		mu = math.Min(math.Max(mu, muL), muR)
		s.eval(k, devs, mu, cur)
		sol.evals++
		if samePiece(devs, cur, left) || samePiece(devs, cur, right) {
			sol.mu, sol.lam = mu, cur.lam
			break
		}
		if cur.load > capS {
			left, cur, muL = cur, left, mu
		} else {
			right, cur, muR = cur, right, mu
		}
	}

	// Mix the bracket pieces so that C3 is tight: x = xR + θ(xL - xR).
	theta := (capS - right.load) / (left.load - right.load)
	obj := 0.0
	for d := range devs {
		for _, i := range devs[d].tasks {
			xl, xr := &left.x[i], &right.x[i]
			for l := range xr {
				xr[l] += theta * (xl[l] - xr[l])
			}
			obj += k[i].e[0]*xr[0] + k[i].e[1]*xr[1] + k[i].e[2]*xr[2]
		}
	}
	sol.x, sol.obj = right.x, obj
	return sol, nil
}

// samePiece reports whether two evaluations took the same decisions for
// every task, which makes them the same piece of x(μ). It compares the
// structure, not the floats.
func samePiece(devs []p2Device, a, b *p2Piece) bool {
	for d := range devs {
		for _, i := range devs[d].tasks {
			if a.code[i] != b.code[i] {
				return false
			}
		}
	}
	return true
}

// eval runs the greedy at station price mu (which may be +∞) into p.
func (s *p2Solver) eval(k []p2Task, devs []p2Device, mu float64, p *p2Piece) {
	obj, load := 0.0, 0.0
	for d := range devs {
		dev := &devs[d]
		for _, i := range dev.tasks {
			t := &k[i]
			x := &p.x[i]
			r := 1 - t.lo
			var code uint8
			var stationFirst bool
			if t.c > 0 {
				stationFirst = t.ks+mu <= t.kc
			} else {
				stationFirst = t.e[1] <= t.e[2]
			}
			if stationFirst {
				code = codeStationFirst
				x[1] = math.Min(t.u[1], r)
				x[2] = r - x[1]
			} else {
				x[2] = math.Min(t.u[2], r)
				x[1] = r - x[2]
			}
			x[0] = t.lo
			head := t.u[0] - t.lo
			if t.c <= 0 {
				// C2 and C3 do not see this task: move to the device,
				// dearer option first, wherever the device is cheaper.
				first, second := 1, 2
				if stationFirst {
					first, second = 2, 1
				}
				for _, l := range [2]int{first, second} {
					if t.e[0] < t.e[l] && head > 0 && x[l] > 0 {
						a := math.Min(x[l], head)
						x[0] += a
						x[l] -= a
						head -= a
						code |= segFull << segShift(l)
					}
				}
			}
			s.head[i] = head
			p.code[i] = code
		}

		// Dantzig's greedy over the merged segment lists.
		rem := dev.cap - s.forced[d]
		lam := 0.0
		is, ic := 0, 0
		for is < len(dev.byKs) || ic < len(dev.byKc) {
			var i int32
			var l int
			var ratio float64
			if ic < len(dev.byKc) && (is == len(dev.byKs) || k[dev.byKc[ic]].kc >= k[dev.byKs[is]].ks+mu) {
				i, l = dev.byKc[ic], 2
				ratio = k[i].kc
				ic++
			} else {
				i, l = dev.byKs[is], 1
				ratio = k[i].ks + mu
				is++
			}
			if ratio <= 0 {
				break
			}
			t, x := &k[i], &p.x[i]
			avail := math.Min(x[l], s.head[i])
			if avail <= 0 {
				continue
			}
			if avail*t.c > rem {
				// Capacity binds here: take what fits, and this ratio is
				// the device's C2 price.
				lam = ratio
				if take := math.Min(rem/t.c, avail); take > 0 {
					x[0] += take
					x[l] -= take
					p.code[i] |= segPartial << segShift(l)
				}
				break
			}
			x[0] += avail
			x[l] -= avail
			s.head[i] -= avail
			rem -= avail * t.c
			p.code[i] |= segFull << segShift(l)
		}
		p.lam[d] = lam

		for _, i := range dev.tasks {
			t, x := &k[i], &p.x[i]
			obj += t.e[0]*x[0] + t.e[1]*x[1] + t.e[2]*x[2]
			load += t.c * x[1]
		}
	}
	p.obj, p.load = obj, load
}

// solveCluster solves one cluster's P2 and records the solve. When the
// relaxation is infeasible it applies LP-HTA's fallback: solve again with
// only the reachable deadline-derived bounds lifted to 1 (Step 4 repairs
// the deadlines). Zero bounds of unreachable subsystems stay, so the
// rounding never places a task where it can never run.
func (s *p2Solver) solveCluster(k []p2Task, devs []p2Device, capS float64, station, tasks int, ins obs.Instruments) (*p2Solution, error) {
	sol, err := s.solveObserved(k, devs, capS, tasks, ins)
	if !errors.Is(err, errP2Infeasible) {
		if err != nil {
			return nil, fmt.Errorf("relaxation: %w", err)
		}
		return sol, nil
	}
	ins.Counter("lphta.lp_fallbacks").Inc()
	ins.Logger().Warn("lphta lp fallback: relaxing deadline-derived bounds",
		"station", station,
		"tasks", tasks,
		"status", "infeasible")
	s.relaxed = s.relaxed[:0]
	for i := range k {
		s.relaxed = append(s.relaxed, k[i].relaxed())
	}
	sol, err = s.solveObserved(s.relaxed, devs, capS, tasks, ins)
	if err != nil {
		return nil, fmt.Errorf("relaxation fallback: %w", err)
	}
	return sol, nil
}

// solveObserved is solve plus its lp.* metrics and lp.solve span.
func (s *p2Solver) solveObserved(k []p2Task, devs []p2Device, capS float64, tasks int, ins obs.Instruments) (*p2Solution, error) {
	span := ins.Span.Child("lp.solve")
	timer := obs.StartTimer()
	sol, err := s.solve(k, devs, capS)
	seconds := timer.Seconds()
	ins.Counter("lp.solves").Inc()
	ins.Histogram("lp.solve_seconds", obs.TimeBuckets).Observe(seconds)
	if sol != nil {
		ins.Counter("lp.price_evaluations").Add(int64(sol.evals))
	}
	if span != nil {
		span.Annotate("tasks", tasks)
		span.Annotate("devices", len(devs))
		if sol != nil {
			span.Annotate("status", "optimal")
			span.Annotate("evaluations", sol.evals)
		} else {
			span.Annotate("status", err.Error())
		}
		span.End()
	}
	return sol, err
}

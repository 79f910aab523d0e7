package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"dsmec/internal/costmodel"
	"dsmec/internal/mecnet"
	"dsmec/internal/task"
)

// ErrNodeLimit is returned by OptimalHTA when a cluster's search explores
// optimalNodeLimit nodes before proving its optimum.
var ErrNodeLimit = errors.New("core: branch-and-bound node limit exceeded")

const (
	// optimalNodeLimit bounds the branch-and-bound nodes per cluster.
	optimalNodeLimit = 20000
	// optimalGap is the relative optimality gap: a node whose relaxation
	// comes within optimalGap·|incumbent| of the incumbent is pruned, so
	// the answer is optimal within that factor. It keeps the search
	// tractable when many placements have near-identical energies.
	optimalGap = 1e-4
	// integralTol is how far from 0 or 1 a fraction may be and still
	// count as integral.
	integralTol = 1e-6
)

// OptimalHTA computes the exact HTA optimum (no cancellations) by
// depth-first branch-and-bound per cluster, with the structured P2 solver
// (p2.go) as the node relaxation. It reaches instances far beyond 3^n
// enumeration. It returns ErrNoFeasible when some cluster admits no full
// placement, and an error wrapping ErrNodeLimit when a cluster needs more
// than optimalNodeLimit nodes.
//
// Each cluster's tasks are taken in ID order, and variable x_ijl of the
// i-th task is v = 3i+l. A node holds, per task, a 3-bit mask of the
// subsystems still open to it, and its relaxation is P2 with 0/1 bounds
// from the mask in place of T_ij/t_ijl: the root closes the subsystems
// that miss the deadline, fixing x_v = 0 clears bit l, and fixing it to 1
// leaves bit l alone. A node is pruned when its relaxation is infeasible
// or within the gap of the incumbent; otherwise it branches on the most
// fractional variable (the lowest v on ties) and explores the branch
// nearer its value first. The search starts from a greedy incumbent
// (largest resource demand first, each task on its cheapest open
// subsystem with room), when the greedy places every task.
func OptimalHTA(m *costmodel.Model, ts *task.Set) (*Assignment, error) {
	perCluster, err := clustersByID(m, ts)
	if err != nil {
		return nil, err
	}
	a := NewAssignment(ts)
	var sc clusterScratch
	for st, cts := range perCluster {
		if len(cts) == 0 {
			continue
		}
		levels, err := sc.optimalCluster(m.System(), st, cts)
		if err != nil {
			return nil, err
		}
		for i, ct := range cts {
			a.PlaceAt(int(ct.idx), costmodel.Subsystems[levels[i]])
		}
	}
	return a, nil
}

// clustersByID returns, per station, the tasks of its cluster in ID order.
func clustersByID(m *costmodel.Model, ts *task.Set) ([][]clusterTask, error) {
	sys := m.System()
	order := make([]int32, ts.Len())
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return ts.At(int(order[a])).ID.Less(ts.At(int(order[b])).ID)
	})
	perCluster := make([][]clusterTask, sys.NumStations())
	for _, i := range order {
		t := ts.At(int(i))
		st, err := sys.StationOf(t.ID.User)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		o, err := m.Eval(t)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		perCluster[st] = append(perCluster[st], clusterTask{t: t, idx: i, opts: o})
	}
	return perCluster, nil
}

// optimalCluster runs the branch-and-bound on one cluster and returns each
// task's subsystem index (into costmodel.Subsystems), indexed like cts.
func (sc *clusterScratch) optimalCluster(sys *mecnet.System, station int, cts []clusterTask) ([]uint8, error) {
	sc.build(sys, cts)
	k, devs := sc.k, sc.devs
	capS := sys.Stations[station].ResourceCap
	n := len(k)

	root := rootMasks(cts)
	best, bestObj := greedyIncumbent(k, devs, root, capS)

	// The stack holds one mask per task for every open node, n bytes each.
	stack := append([]uint8(nil), root...)
	node := make([]uint8, n)
	for nodes := 0; len(stack) > 0; nodes++ {
		if nodes >= optimalNodeLimit {
			return nil, fmt.Errorf("core: cluster %d: %w", station, ErrNodeLimit)
		}
		copy(node, stack[len(stack)-n:])
		stack = stack[:len(stack)-n]
		for i := range k {
			k[i].setBounds(maskBounds(node[i]))
		}
		sol, err := sc.solver.solve(k, devs, capS)
		if errors.Is(err, errP2Infeasible) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d: relaxation: %w", station, err)
		}
		margin := 1e-9
		if !math.IsInf(bestObj, 1) {
			margin = math.Max(margin, optimalGap*math.Abs(bestObj))
		}
		if sol.obj >= bestObj-margin {
			continue
		}

		v := mostFractional(sol.x)
		if v < 0 {
			if best == nil {
				best = make([]uint8, n)
			}
			for i, x := range sol.x {
				for l := range x {
					if x[l] > 0.5 {
						best[i] = uint8(l)
						break
					}
				}
			}
			bestObj = sol.obj
			continue
		}
		// Push the far branch first so that the near one pops first.
		i, l := v/3, v%3
		near := sol.x[i][l] >= 0.5
		for _, one := range [2]bool{!near, near} {
			at := len(stack)
			stack = append(stack, node...)
			if one {
				stack[at+i] = 1 << l
			} else {
				stack[at+i] &^= 1 << l
			}
		}
	}
	if best == nil {
		return nil, ErrNoFeasible
	}
	return best, nil
}

// rootMasks returns each task's mask of the subsystems that meet its
// deadline: the root node of the search.
func rootMasks(cts []clusterTask) []uint8 {
	root := make([]uint8, len(cts))
	for i, ct := range cts {
		for li, l := range costmodel.Subsystems {
			if ct.opts.At(l).Time <= ct.t.Deadline {
				root[i] |= 1 << li
			}
		}
	}
	return root
}

// maskBounds turns a task's mask of open subsystems into 0/1 bounds.
func maskBounds(mask uint8) [3]float64 {
	var u [3]float64
	for l := range u {
		if mask&(1<<l) != 0 {
			u[l] = 1
		}
	}
	return u
}

// mostFractional returns the variable v = 3i+l whose fraction lies
// farthest from an integer, the lowest v on ties, or -1 when every
// fraction is within integralTol of one.
func mostFractional(x [][3]float64) int {
	branch, worst := -1, integralTol
	for i := range x {
		for l, f := range x[i] {
			if d := math.Abs(f - math.Round(f)); d > worst {
				branch, worst = 3*i+l, d
			}
		}
	}
	return branch
}

// greedyIncumbent places the tasks largest resource demand first, each on
// its cheapest subsystem that root leaves open and that still has room.
// It returns the subsystem indices and their energy, or nil and +∞ when
// some task finds no room.
func greedyIncumbent(k []p2Task, devs []p2Device, root []uint8, capS float64) ([]uint8, float64) {
	devOf := make([]int, len(k))
	for d := range devs {
		for _, i := range devs[d].tasks {
			devOf[i] = d
		}
	}
	order := make([]int, len(k))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(k[b].c, k[a].c) })

	levels := make([]uint8, len(k))
	devLoad := make([]float64, len(devs))
	stationLoad := 0.0
	for _, i := range order {
		t, d := &k[i], devOf[i]
		best := -1
		for l := range t.e {
			if root[i]&(1<<l) == 0 {
				continue
			}
			switch {
			case l == 0 && devLoad[d]+t.c > devs[d].cap:
				continue
			case l == 1 && stationLoad+t.c > capS:
				continue
			}
			if best < 0 || t.e[l] < t.e[best] {
				best = l
			}
		}
		if best < 0 {
			return nil, math.Inf(1)
		}
		levels[i] = uint8(best)
		switch best {
		case 0:
			devLoad[d] += t.c
		case 1:
			stationLoad += t.c
		}
	}
	obj := 0.0
	for i := range k {
		obj += k[i].e[levels[i]]
	}
	return levels, obj
}

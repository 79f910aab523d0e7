package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"dsmec/internal/costmodel"
	"dsmec/internal/rng"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// fuzzScenario decodes the fuzz input into a generated scenario of 1–20
// tasks on 1–3 clusters of 2–5 devices. The caps and the deadline slack
// range from roomy to over-constrained, and a slack below 1 leaves tasks
// that no subsystem can serve.
func fuzzScenario(t *testing.T, seed int64, tasks, devices, caps, slack uint8) *workload.Scenario {
	t.Helper()
	stations := 1 + int(devices>>4)%3
	slackMin := 0.9 + 0.1*float64(slack%8)
	sc, err := workload.GenerateHolistic(rng.NewSource(seed), workload.Params{
		NumStations:      stations,
		NumDevices:       stations * (2 + int(devices)%4),
		NumTasks:         1 + int(tasks)%20,
		DeviceCap:        1 + float64(caps%16)/2,
		StationCap:       2 + 2*float64(caps>>4),
		DeadlineSlackMin: slackMin,
		DeadlineSlackMax: slackMin + 0.1 + 0.5*float64((slack>>3)%8),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// FuzzLPHTA checks LP-HTA against the paper's guarantees on generated
// scenarios of at most 20 tasks: every output passes CheckFeasible, its
// energy is at most the Theorem 2 bound (3 + Δ/E_LP)·E_LP, and when
// OptimalHTA proves an optimum, E_LP ≤ E_OPT, and E_OPT ≤ E_LPHTA within
// the search's gap if LP-HTA cancels nothing. When LP-HTA cancels
// nothing, a full placement exists, so OptimalHTA must not report none.
//
// The seed corpus in testdata/fuzz/FuzzLPHTA holds a proven instance, an
// over-constrained one (LP-HTA cancels, no full placement exists) and one
// where LP-HTA cancels tasks that a full placement could have kept.
func FuzzLPHTA(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, tasks, devices, caps, slack uint8) {
		sc := fuzzScenario(t, seed, tasks, devices, caps, slack)
		res, err := LPHTA(sc.Model, sc.Tasks, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFeasible(sc.Model, sc.Tasks, res.Assignment); err != nil {
			t.Fatal(err)
		}
		m, err := Evaluate(sc.Model, sc.Tasks, res.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		energy, lp := float64(m.TotalEnergy), float64(res.LPObjective)
		if lp > 0 {
			if bound := res.RatioBoundEstimate() * lp; energy > bound*(1+1e-9) {
				t.Fatalf("energy %.17g above the Theorem 2 bound %.17g (E_LP %.17g, Δ %.17g)",
					energy, bound, lp, float64(res.Delta))
			}
		}
		opt, err := OptimalHTA(sc.Model, sc.Tasks)
		switch {
		case errors.Is(err, ErrNodeLimit):
			return
		case errors.Is(err, ErrNoFeasible):
			if m.Cancelled == 0 {
				t.Fatal("LP-HTA placed every task, but OptimalHTA finds no full placement")
			}
			return
		case err != nil:
			t.Fatal(err)
		}
		if err := CheckFeasible(sc.Model, sc.Tasks, opt); err != nil {
			t.Fatal(err)
		}
		optM, err := Evaluate(sc.Model, sc.Tasks, opt)
		if err != nil {
			t.Fatal(err)
		}
		eOpt := float64(optM.TotalEnergy)
		if optM.Cancelled > 0 || lp > eOpt*(1+1e-9) {
			t.Fatalf("want E_LP ≤ E_OPT with nothing cancelled, got %.17g, %.17g (%d cancelled)",
				lp, eOpt, optM.Cancelled)
		}
		if m.Cancelled == 0 && eOpt > energy*(1+optimalGap) {
			t.Fatalf("E_OPT %.17g above LP-HTA's %.17g", eOpt, energy)
		}
	})
}

// enumerateHTA returns the least energy of a full placement, trying every
// subsystem that meets each task's deadline and fits the caps, or +Inf
// when no full placement exists.
func enumerateHTA(t *testing.T, m *costmodel.Model, ts *task.Set) float64 {
	t.Helper()
	sys := m.System()
	opts := make([]costmodel.Options, ts.Len())
	for i := range opts {
		o, err := m.Eval(ts.At(i))
		if err != nil {
			t.Fatal(err)
		}
		opts[i] = o
	}
	devLoad := make([]float64, sys.NumDevices())
	stationLoad := make([]float64, sys.NumStations())
	best := math.Inf(1)
	var rec func(i int, energy float64)
	rec = func(i int, energy float64) {
		if energy >= best {
			return
		}
		if i == ts.Len() {
			best = energy
			return
		}
		tk := ts.At(i)
		dev := tk.ID.User
		st := sys.Devices[dev].Station
		for _, l := range costmodel.Subsystems {
			c := opts[i].At(l)
			if c.Time > tk.Deadline {
				continue
			}
			var load *float64
			switch l {
			case costmodel.SubsystemDevice:
				if devLoad[dev]+tk.Resource > sys.Devices[dev].ResourceCap {
					continue
				}
				load = &devLoad[dev]
			case costmodel.SubsystemStation:
				if stationLoad[st]+tk.Resource > sys.Stations[st].ResourceCap {
					continue
				}
				load = &stationLoad[st]
			}
			if load != nil {
				*load += tk.Resource
			}
			rec(i+1, energy+float64(c.Energy))
			if load != nil {
				*load -= tk.Resource
			}
		}
	}
	rec(0, 0)
	return best
}

// optimalEnergy checks that a is a full placement that passes
// CheckFeasible and returns its energy.
func optimalEnergy(t *testing.T, m *costmodel.Model, ts *task.Set, a *Assignment) float64 {
	t.Helper()
	if err := CheckFeasible(m, ts, a); err != nil {
		t.Fatal(err)
	}
	met, err := Evaluate(m, ts, a)
	if err != nil {
		t.Fatal(err)
	}
	if met.Cancelled != 0 {
		t.Fatalf("%d tasks cancelled, want a full placement", met.Cancelled)
	}
	return float64(met.TotalEnergy)
}

// TestOptimalHTAMatchesEnumeration checks the search against exhaustive
// enumeration on 300 generated scenarios of 1–10 tasks on 1–3 clusters,
// some with tasks that no subsystem can serve: OptimalHTA reports
// ErrNoFeasible exactly when no full placement exists, and otherwise
// returns a full, feasible placement whose energy is the optimum within
// the search's gap.
func TestOptimalHTAMatchesEnumeration(t *testing.T) {
	proven, none := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		r := rng.NewSource(seed).Stream("optimal-vs-enumeration")
		b := func(lo, hi int) uint8 { return uint8(rng.UniformInt(r, lo, hi)) }
		sc := fuzzScenario(t, seed, b(0, 9), b(0, 255), b(0, 255), b(0, 255))
		want := enumerateHTA(t, sc.Model, sc.Tasks)
		opt, err := OptimalHTA(sc.Model, sc.Tasks)
		if math.IsInf(want, 1) {
			if !errors.Is(err, ErrNoFeasible) {
				t.Fatalf("seed %d: no full placement exists, but OptimalHTA returned %v", seed, err)
			}
			none++
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: enumeration found %.17g, OptimalHTA failed: %v", seed, want, err)
		}
		proven++
		if got := optimalEnergy(t, sc.Model, sc.Tasks, opt); got < want*(1-1e-9) || got > want*(1+optimalGap) {
			t.Fatalf("seed %d: OptimalHTA energy %.17g, enumeration %.17g", seed, got, want)
		}
	}
	t.Logf("%d proven, %d without a full placement", proven, none)
	if proven < 100 || none < 50 {
		t.Errorf("want both outcomes well covered, got %d proven and %d without a full placement", proven, none)
	}
}

// TestOptimalHTAIntegerInfeasible builds a cluster whose root relaxation
// has a fractional point but no 0/1 one: two tasks of demand 2 on one
// device of cap 3.5, a station of cap 1, and deadlines the cloud misses.
// The search must exhaust the tree and report ErrNoFeasible.
func TestOptimalHTAIntegerInfeasible(t *testing.T) {
	sys, m := twoDeviceSystem(t, 3.5, 1)
	ts, err := task.NewSet(
		simpleTask(0, 0, 500*units.Kilobyte, 2, units.Forever),
		simpleTask(0, 1, 500*units.Kilobyte, 2, units.Forever),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ts.Len(); i++ {
		tk := ts.At(i)
		o, err := m.Eval(tk)
		if err != nil {
			t.Fatal(err)
		}
		tk.Deadline = max(o.At(costmodel.SubsystemDevice).Time, o.At(costmodel.SubsystemStation).Time)
		if o.At(costmodel.SubsystemCloud).Time <= tk.Deadline {
			t.Fatalf("task %v: the cloud meets the deadline %v", tk.ID, tk.Deadline)
		}
	}
	if e := enumerateHTA(t, m, ts); !math.IsInf(e, 1) {
		t.Fatalf("enumeration found a full placement of energy %g", e)
	}

	clusters, err := clustersByID(m, ts)
	if err != nil {
		t.Fatal(err)
	}
	var scr clusterScratch
	scr.build(sys, clusters[0])
	root := rootMasks(clusters[0])
	for i, mask := range root {
		scr.k[i].setBounds(maskBounds(mask))
	}
	sol, err := scr.solver.solve(scr.k, scr.devs, sys.Stations[0].ResourceCap)
	if err != nil {
		t.Fatalf("root relaxation: %v, want a fractional point", err)
	}
	if mostFractional(sol.x) < 0 {
		t.Fatalf("root relaxation is integral: %v", sol.x)
	}
	if levels, _ := greedyIncumbent(scr.k, scr.devs, root, sys.Stations[0].ResourceCap); levels != nil {
		t.Fatalf("greedy placed every task: %v", levels)
	}

	if a, err := OptimalHTA(m, ts); !errors.Is(err, ErrNoFeasible) || a != nil {
		t.Errorf("OptimalHTA = %v, %v; want nil, ErrNoFeasible", a, err)
	}
}

// TestOptimalHTANodeLimit runs the ratio experiment's first 48-task
// instance at seed 1, whose cluster 0 needs more than optimalNodeLimit
// nodes: the call stops with ErrNodeLimit and no assignment. Solved
// alone, cluster 0 trips the limit again and cluster 1 is proven with a
// full, feasible placement.
func TestOptimalHTANodeLimit(t *testing.T) {
	src := rng.NewSource(1).Derive(fmt.Sprintf("ratio-%d-%d", 48, 0))
	sc, err := workload.GenerateHolistic(src, workload.Params{
		NumDevices: 8, NumStations: 2, NumTasks: 48,
		DeviceCap: 8, StationCap: 24,
		DeadlineSlackMin: 2, DeadlineSlackMax: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a, err := OptimalHTA(sc.Model, sc.Tasks); !errors.Is(err, ErrNodeLimit) || a != nil {
		t.Fatalf("OptimalHTA = %v, %v; want nil, ErrNodeLimit", a, err)
	}

	sys := sc.Model.System()
	for st, wantLimit := range []bool{true, false} {
		var part []*task.Task
		for i := 0; i < sc.Tasks.Len(); i++ {
			if tk := *sc.Tasks.At(i); sys.Devices[tk.ID.User].Station == st {
				part = append(part, &tk)
			}
		}
		ts, err := task.NewSet(part...)
		if err != nil {
			t.Fatal(err)
		}
		a, err := OptimalHTA(sc.Model, ts)
		if wantLimit {
			if !errors.Is(err, ErrNodeLimit) || a != nil {
				t.Errorf("cluster %d alone: OptimalHTA = %v, %v; want nil, ErrNodeLimit", st, a, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cluster %d alone: %v", st, err)
		}
		optimalEnergy(t, sc.Model, ts, a)
	}
}

// TestOptimalHTAGreedyIncumbent checks the search against its greedy
// starting point on 1000 generated one-cluster scenarios of 1–10 tasks.
// A greedy placement is full and feasible and never beats the optimum;
// the search never returns worse, keeps the greedy placement unchanged
// when it is optimal, and improves on it when it is not. When the greedy
// cannot place every task but a full placement exists, the search still
// finds the optimum.
func TestOptimalHTAGreedyIncumbent(t *testing.T) {
	kept, improved, noGreedy := 0, 0, 0
	for seed := int64(0); seed < 1000; seed++ {
		r := rng.NewSource(seed).Stream("optimal-greedy")
		b := func(lo, hi int) uint8 { return uint8(rng.UniformInt(r, lo, hi)) }
		// A device byte below 16 keeps the scenario on one station.
		sc := fuzzScenario(t, seed, b(0, 9), b(0, 15), b(0, 255), b(0, 255))
		sys := sc.Model.System()
		clusters, err := clustersByID(sc.Model, sc.Tasks)
		if err != nil {
			t.Fatal(err)
		}
		cts := clusters[0]
		var scr clusterScratch
		scr.build(sys, cts)
		greedy, greedyObj := greedyIncumbent(scr.k, scr.devs, rootMasks(cts), sys.Stations[0].ResourceCap)

		want := enumerateHTA(t, sc.Model, sc.Tasks)
		opt, err := OptimalHTA(sc.Model, sc.Tasks)
		if math.IsInf(want, 1) {
			if greedy != nil || !errors.Is(err, ErrNoFeasible) {
				t.Fatalf("seed %d: no full placement exists, but greedy gave %v and OptimalHTA %v", seed, greedy, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := optimalEnergy(t, sc.Model, sc.Tasks, opt)
		if got < want*(1-1e-9) || got > want*(1+optimalGap) {
			t.Fatalf("seed %d: OptimalHTA energy %.17g, enumeration %.17g", seed, got, want)
		}
		if greedy == nil {
			noGreedy++
			continue
		}

		ga := NewAssignment(sc.Tasks)
		optLevels := make([]uint8, len(cts))
		for i, ct := range cts {
			ga.PlaceAt(int(ct.idx), costmodel.Subsystems[greedy[i]])
			optLevels[i] = uint8(slices.Index(costmodel.Subsystems[:], opt.Of(ct.t.ID)))
		}
		if e := optimalEnergy(t, sc.Model, sc.Tasks, ga); !relClose(e, greedyObj) {
			t.Fatalf("seed %d: greedy energy %.17g, its placement evaluates to %.17g", seed, greedyObj, e)
		}
		switch {
		case greedyObj < want*(1-1e-9):
			t.Fatalf("seed %d: greedy %.17g beats the optimum %.17g", seed, greedyObj, want)
		case got > greedyObj*(1+1e-9):
			t.Fatalf("seed %d: OptimalHTA %.17g worse than its greedy incumbent %.17g", seed, got, greedyObj)
		case relClose(greedyObj, want):
			if !slices.Equal(optLevels, greedy) {
				t.Fatalf("seed %d: the greedy placement %v is optimal, OptimalHTA returned %v", seed, greedy, optLevels)
			}
			kept++
		case want < greedyObj*(1-optimalGap):
			if slices.Equal(optLevels, greedy) {
				t.Fatalf("seed %d: OptimalHTA kept the greedy %.17g, optimum %.17g", seed, greedyObj, want)
			}
			improved++
		}
	}
	t.Logf("greedy optimal %d, improved on %d, no greedy placement %d", kept, improved, noGreedy)
	if kept < 30 || improved < 30 || noGreedy < 5 {
		t.Errorf("want every case covered, got %d kept, %d improved, %d without a greedy placement", kept, improved, noGreedy)
	}
}

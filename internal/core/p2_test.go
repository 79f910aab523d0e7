package core

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"dsmec/internal/costmodel"
	"dsmec/internal/lp"
	"dsmec/internal/obs"
	"dsmec/internal/rng"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// P2 outcomes, as LP-HTA sees them.
const (
	outcomeOptimal  = "optimal"
	outcomeFallback = "fallback"
	outcomeError    = "error"
)

// simplexP2 solves the cluster relaxation with the revised simplex over
// the same constants, applying LP-HTA's fallback. Every task in k must
// appear in devs. It is the oracle the structured solver is checked
// against.
func simplexP2(t *testing.T, k []p2Task, devs []p2Device, capS float64) (x [][3]float64, obj float64, outcome string) {
	t.Helper()
	build := func(k []p2Task) *lp.Problem {
		p := &lp.Problem{Minimize: make([]float64, 3*len(k)), Upper: make([]float64, 3*len(k))}
		for i := range k {
			for l := 0; l < 3; l++ {
				p.Minimize[3*i+l] = k[i].e[l]
				p.Upper[3*i+l] = k[i].u[l]
			}
			p.Constraints = append(p.Constraints, lp.Sparse(
				[]int{3 * i, 3*i + 1, 3*i + 2}, []float64{1, 1, 1}, lp.EQ, 1))
		}
		var cols []int
		var vals []float64
		for _, d := range devs {
			if len(d.tasks) == 0 {
				continue
			}
			cols, vals = cols[:0], vals[:0]
			for _, i := range slices.Sorted(slices.Values(d.tasks)) {
				cols = append(cols, 3*int(i))
				vals = append(vals, k[i].c)
			}
			p.Constraints = append(p.Constraints, lp.Sparse(
				append([]int(nil), cols...), append([]float64(nil), vals...), lp.LE, d.cap))
		}
		cols, vals = cols[:0], vals[:0]
		for i := range k {
			cols = append(cols, 3*i+1)
			vals = append(vals, k[i].c)
		}
		p.Constraints = append(p.Constraints, lp.Sparse(cols, vals, lp.LE, capS))
		return p
	}
	solve := func(k []p2Task) *lp.Solution {
		sol, err := lp.Solve(build(k))
		if err != nil {
			t.Fatalf("simplex: %v", err)
		}
		return sol
	}
	sol := solve(k)
	outcome = outcomeOptimal
	if sol.Status != lp.Optimal {
		relaxed := make([]p2Task, len(k))
		for i := range k {
			relaxed[i] = k[i].relaxed()
		}
		if sol = solve(relaxed); sol.Status != lp.Optimal {
			return nil, 0, outcomeError
		}
		outcome = outcomeFallback
	}
	x = make([][3]float64, len(k))
	for i := range x {
		x[i] = [3]float64{sol.X[3*i], sol.X[3*i+1], sol.X[3*i+2]}
	}
	return x, sol.Objective, outcome
}

// structuredP2 runs the structured solver with LP-HTA's fallback and
// returns the solution together with the constants it solved.
func structuredP2(t *testing.T, k []p2Task, devs []p2Device, capS float64) (*p2Solution, []p2Task, string) {
	t.Helper()
	var s p2Solver
	sol, err := s.solve(k, devs, capS)
	if err == nil {
		return sol, k, outcomeOptimal
	}
	if err != errP2Infeasible {
		t.Fatalf("structured: %v", err)
	}
	relaxed := make([]p2Task, len(k))
	for i := range k {
		relaxed[i] = k[i].relaxed()
	}
	sol, err = s.solve(relaxed, devs, capS)
	if err == errP2Infeasible {
		return nil, relaxed, outcomeError
	}
	if err != nil {
		t.Fatalf("structured fallback: %v", err)
	}
	return sol, relaxed, outcomeFallback
}

// checkKKT certifies a structured solution with its own duals: primal
// feasibility, dual signs, complementary slackness on C2 and C3, and for
// every task a price π_j that makes each variable's reduced cost agree
// with its position (zero strictly between its bounds, non-negative at 0,
// non-positive at its upper bound).
func checkKKT(t *testing.T, k []p2Task, devs []p2Device, capS float64, sol *p2Solution) {
	t.Helper()
	const tol = 1e-9
	scale := func(v float64) float64 { return tol * (1 + math.Abs(v)) }
	if sol.mu < 0 {
		t.Errorf("μ = %g < 0", sol.mu)
	}
	stationLoad := 0.0
	for d, dev := range devs {
		lam := sol.lam[d]
		if lam < 0 {
			t.Errorf("device %d: λ = %g < 0", d, lam)
		}
		load := 0.0
		for _, i := range dev.tasks {
			kt, x := &k[i], sol.x[i]
			sum := 0.0
			for l := range x {
				sum += x[l]
				if x[l] < -tol || x[l] > kt.u[l]+tol {
					t.Errorf("task %d: x%d = %g outside [0, %g]", i, l+1, x[l], kt.u[l])
				}
			}
			if math.Abs(sum-1) > tol {
				t.Errorf("task %d: fractions sum to %g", i, sum)
			}
			load += kt.c * x[0]
			stationLoad += kt.c * x[1]

			// Adjusted costs; π must lie in [max over x > 0, min over x < u].
			a := [3]float64{kt.e[0] + lam*kt.c, kt.e[1] + sol.mu*kt.c, kt.e[2]}
			lo, hi := math.Inf(-1), math.Inf(1)
			for l := range x {
				if x[l] > tol {
					lo = math.Max(lo, a[l])
				}
				if x[l] < kt.u[l]-tol {
					hi = math.Min(hi, a[l])
				}
			}
			if lo > hi+1e-7*(1+math.Abs(hi)) {
				t.Errorf("task %d: no price fits x=%v at costs %v (μ=%g, λ=%g)", i, x, a, sol.mu, lam)
			}
		}
		if load > dev.cap+scale(dev.cap) {
			t.Errorf("device %d: load %g above cap %g", d, load, dev.cap)
		}
		if lam > tol && load < dev.cap-scale(dev.cap) {
			t.Errorf("device %d: λ = %g but load %g below cap %g", d, lam, load, dev.cap)
		}
	}
	if stationLoad > capS+scale(capS) {
		t.Errorf("station load %g above cap %g", stationLoad, capS)
	}
	if sol.mu > tol && stationLoad < capS-scale(capS) {
		t.Errorf("μ = %g but station load %g below cap %g", sol.mu, stationLoad, capS)
	}
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// sizingCase is one generated instance the structured solver is checked
// on cluster by cluster. The batch-contended, online-churn and batch-wide
// shapes are the repository benchmark's (e2ebench), with its seeded task
// order.
type sizingCase struct {
	name                     string
	devices, stations, tasks int
	seed                     int64
	aged                     bool
	// stride samples every stride-th cluster in the default run;
	// MEC_LARGE_SMOKE=1 checks every cluster.
	stride int
}

var sizingCases = []sizingCase{
	{name: "default-450", tasks: 450, seed: 1, stride: 1},
	{name: "seed2-150", tasks: 150, seed: 2, stride: 1},
	{name: "seed3-240", tasks: 240, seed: 3, stride: 1},
	{name: "online-churn", devices: 800, stations: 20, tasks: 6000, seed: 1, aged: true, stride: 4},
	{name: "online-churn", devices: 800, stations: 20, tasks: 6000, seed: 2, aged: true, stride: 10},
	{name: "batch-contended", devices: 6000, stations: 120, tasks: 36000, seed: 1, aged: true, stride: 30},
	{name: "batch-contended", devices: 6000, stations: 120, tasks: 36000, seed: 2, aged: true, stride: 60},
	{name: "batch-wide", devices: 100000, stations: 5000, tasks: 100000, seed: 1, aged: true, stride: 0},
}

func (c sizingCase) scenario(t *testing.T) *workload.Scenario {
	t.Helper()
	src := rng.NewSource(c.seed)
	sc, err := workload.GenerateHolistic(src, workload.Params{NumDevices: c.devices, NumStations: c.stations, NumTasks: c.tasks})
	if err != nil {
		t.Fatal(err)
	}
	if c.aged {
		aged := &task.Set{}
		aged.Grow(sc.Tasks.Len())
		for _, i := range src.Stream("e2ebench.age").Perm(sc.Tasks.Len()) {
			cp := *sc.Tasks.At(i)
			if err := aged.Add(&cp); err != nil {
				t.Fatal(err)
			}
		}
		sc.Tasks = aged
	}
	return sc
}

// clusterTasks returns, per station, the tasks LPHTA hands the cluster
// LP: arena order, pre-cancelled tasks left out.
func clusterTasks(t *testing.T, m *costmodel.Model, ts *task.Set) [][]clusterTask {
	t.Helper()
	sys := m.System()
	out := make([][]clusterTask, sys.NumStations())
	for i := 0; i < ts.Len(); i++ {
		tk := ts.At(i)
		o, err := m.Eval(tk)
		if err != nil {
			t.Fatal(err)
		}
		if !feasibleAnywhere(tk, o) {
			continue
		}
		st := sys.Devices[tk.ID.User].Station
		out[st] = append(out[st], clusterTask{t: tk, idx: int32(i), opts: o})
	}
	return out
}

// TestLPHTAStructuredMatchesSimplex checks the structured solver against
// the revised simplex on every sampled cluster of the generated
// instances: the same outcome, objectives within 1e-9 relative, the same
// Step 3 argmax for every task, the same placements after Steps 4–6, and
// a passing KKT certificate.
func TestLPHTAStructuredMatchesSimplex(t *testing.T) {
	full := os.Getenv("MEC_LARGE_SMOKE") != ""
	for _, c := range sizingCases {
		if !full && c.stride == 0 {
			continue
		}
		stride := c.stride
		if full {
			stride = 1
		}
		sc := c.scenario(t)
		sys := sc.Model.System()
		clusters, fallbacks := 0, 0
		for st, cts := range clusterTasks(t, sc.Model, sc.Tasks) {
			if len(cts) == 0 || st%stride != 0 {
				continue
			}
			clusters++
			var scr clusterScratch
			reg := obs.NewRegistry()
			sol, err := scr.solveClusterLP(sys, st, cts, obs.Instruments{Metrics: reg})
			if err != nil {
				t.Fatalf("%s seed %d station %d: %v", c.name, c.seed, st, err)
			}
			capS := sys.Stations[st].ResourceCap
			x, obj, outcome := simplexP2(t, scr.k, scr.devs, capS)
			want := outcomeOptimal
			if reg.Counter("lphta.lp_fallbacks").Value() > 0 {
				want = outcomeFallback
				fallbacks++
			}
			if outcome != want {
				t.Fatalf("%s seed %d station %d: simplex %s, structured %s", c.name, c.seed, st, outcome, want)
			}
			if !relClose(obj, sol.obj) {
				t.Errorf("%s seed %d station %d: objective %.17g, simplex %.17g", c.name, c.seed, st, sol.obj, obj)
			}
			k := scr.k
			if want == outcomeFallback {
				k = scr.solver.relaxed
			}
			checkKKT(t, k, scr.devs, capS, sol)

			var structured, simplex clusterOutcome
			opts, _ := (*LPHTAOptions)(nil).withDefaults()
			frac := append([][3]float64(nil), sol.x...)
			for i := range cts {
				if argmaxLevel(frac[i]) != argmaxLevel(x[i]) {
					t.Errorf("%s seed %d station %d task %v: Step 3 picks %v, simplex %v (x=%v, simplex %v)",
						c.name, c.seed, st, cts[i].t.ID, argmaxLevel(frac[i]), argmaxLevel(x[i]), frac[i], x[i])
				}
			}
			roundAndRepair(sys, st, cts, frac, scr.devs, nil, opts, &structured)
			roundAndRepair(sys, st, cts, x, scr.devs, nil, opts, &simplex)
			for i, p := range structured.placements {
				if p != simplex.placements[i] {
					t.Errorf("%s seed %d station %d: task %v placed %v, simplex %v",
						c.name, c.seed, st, cts[i].t.ID, p.level, simplex.placements[i].level)
				}
			}
		}
		t.Logf("%s seed %d: %d clusters (%d fallbacks)", c.name, c.seed, clusters, fallbacks)
	}
}

// tieCluster builds a one-station cluster from explicit costs: every task
// has deadline 1 s, and its subsystem times set its bounds (T/t, 0 when
// unreachable).
type tieTask struct {
	dev  int
	c    float64
	e, s [3]float64 // energies and times
}

func tieCluster(caps []float64, tasks []tieTask) ([]p2Task, []p2Device) {
	k := make([]p2Task, len(tasks))
	devs := make([]p2Device, len(caps))
	for d := range devs {
		devs[d].cap = caps[d]
	}
	for i, tt := range tasks {
		tk := &task.Task{ID: task.ID{User: tt.dev, Index: i}, Resource: tt.c, Deadline: units.Second}
		var o costmodel.Options
		for li, l := range costmodel.Subsystems {
			time := units.Duration(tt.s[li])
			if math.IsInf(tt.s[li], 1) {
				time = units.Forever
			}
			o.ByLevel[l] = costmodel.Cost{Time: time, Energy: units.Energy(tt.e[li])}
		}
		k[i] = newP2Task(tk, o)
		devs[tt.dev].tasks = append(devs[tt.dev].tasks, int32(i))
	}
	for d := range devs {
		_, devs[d].byKs = appendSegments(nil, k, devs[d].tasks, stationKey)
		_, devs[d].byKc = appendSegments(nil, k, devs[d].tasks, cloudKey)
	}
	return k, devs
}

// TestP2TieRules pins the point the structured solver picks on
// constructed ties, and checks each against the simplex and the KKT
// certificate.
func TestP2TieRules(t *testing.T) {
	inf := math.Inf(1)
	fast := [3]float64{0.5, 0.5, 0.5}
	for _, tc := range []struct {
		name  string
		caps  []float64
		capS  float64
		tasks []tieTask
		want  [][3]float64
		mu    float64
	}{{
		// E2 = E3 and the station is slack: the station counts as the
		// cheaper off-device option, so it takes the mass.
		name: "station equals cloud",
		caps: []float64{0}, capS: 4,
		tasks: []tieTask{{dev: 0, c: 1, e: [3]float64{9, 3, 3}, s: fast}},
		want:  [][3]float64{{0, 1, 0}},
	}, {
		// Two identical tasks on one device with room for one and a half:
		// equal segment ratios go in arrival order, so the first moves
		// whole and the second half.
		name: "equal segment ratios",
		caps: []float64{1.5}, capS: 4,
		tasks: []tieTask{
			{dev: 0, c: 1, e: [3]float64{1, 3, 5}, s: fast},
			{dev: 0, c: 1, e: [3]float64{1, 3, 5}, s: fast},
		},
		want: [][3]float64{{1, 0, 0}, {0.5, 0.5, 0}},
	}, {
		// Two identical tasks on two devices share a station with room
		// for one: both flip to the cloud at the same μ* = 2, a face. The
		// mix gives each the same share.
		name: "face at mu*",
		caps: []float64{0, 0}, capS: 1,
		tasks: []tieTask{
			{dev: 0, c: 1, e: [3]float64{9, 3, 5}, s: fast},
			{dev: 1, c: 1, e: [3]float64{9, 3, 5}, s: fast},
		},
		want: [][3]float64{{0, 0.5, 0.5}, {0, 0.5, 0.5}},
		mu:   2,
	}, {
		// Zero savings: E1 = E2 with spare device capacity keeps the task
		// off the device.
		name: "zero savings",
		caps: []float64{4}, capS: 4,
		tasks: []tieTask{{dev: 0, c: 1, e: [3]float64{3, 3, 5}, s: fast}},
		want:  [][3]float64{{0, 1, 0}},
	}, {
		// A station segment and a cloud segment with equal ratios at μ*:
		// the cloud segment goes first.
		name: "station and cloud segment tie",
		caps: []float64{1}, capS: 0,
		tasks: []tieTask{
			{dev: 0, c: 1, e: [3]float64{1, 2, 9}, s: [3]float64{0.5, 0.5, inf}},
			{dev: 0, c: 1, e: [3]float64{1, 8, 4}, s: [3]float64{0.5, inf, 0.5}},
		},
		want: [][3]float64{{1, 0, 0}, {0, 0, 1}},
		mu:   2,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			k, devs := tieCluster(tc.caps, tc.tasks)
			sol, solved, outcome := structuredP2(t, k, devs, tc.capS)
			if outcome != outcomeOptimal {
				t.Fatalf("outcome %s", outcome)
			}
			checkKKT(t, solved, devs, tc.capS, sol)
			_, obj, simplex := simplexP2(t, k, devs, tc.capS)
			if simplex != outcomeOptimal || !relClose(obj, sol.obj) {
				t.Errorf("objective %g (%s), simplex %g (%s)", sol.obj, outcome, obj, simplex)
			}
			for i, want := range tc.want {
				if sol.x[i] != want {
					t.Errorf("task %d: x = %v, want %v", i, sol.x[i], want)
				}
			}
			if !relClose(sol.mu, tc.mu) {
				t.Errorf("μ = %g, want %g", sol.mu, tc.mu)
			}
		})
	}
}

// fuzzCluster decodes bytes into a cluster of at most 12 tasks on 1–4
// devices. Every value sits on a coarse dyadic grid, so sums are exact
// and the boundary cases (caps met exactly, E2 = E3, equal ratios) are
// exact ties, not near misses.
func fuzzCluster(data []byte) ([]p2Task, []p2Device, float64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	caps := []float64{0, 0.5, 1, 2, 4}
	times := []float64{0.5, 1, 2, 4, 8, math.Inf(1)}
	resources := []float64{0, 0.5, 1, 1.5, 2, 3}
	nDev := 1 + next()%4
	dcaps := make([]float64, nDev)
	for d := range dcaps {
		dcaps[d] = caps[next()%len(caps)]
	}
	capS := 2 * caps[next()%len(caps)]
	n := next() % 13
	tasks := make([]tieTask, n)
	for i := range tasks {
		tt := &tasks[i]
		tt.dev = next() % nDev
		tt.c = resources[next()%len(resources)]
		for l := 0; l < 3; l++ {
			tt.e[l] = float64(next() % 16)
			tt.s[l] = times[next()%len(times)]
		}
	}
	k, devs := tieCluster(dcaps, tasks)
	return k, devs, capS
}

// FuzzClusterRelaxation checks the structured solver against the revised
// simplex on byte-decoded clusters: it never panics, the outcome
// (optimal, fallback or error) matches, the objectives agree within 1e-9
// relative, and every solution passes the KKT certificate.
//
// The seed corpus in testdata/fuzz/FuzzClusterRelaxation holds the
// constructed ties (E2 = E3, equal segment ratios, a face at μ*, zero
// savings, a station/cloud segment tie), a resource-free task, a
// fallback cluster and an infeasible one.
func FuzzClusterRelaxation(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		k, devs, capS := fuzzCluster(data)
		if len(k) == 0 {
			return
		}
		x, obj, want := simplexP2(t, k, devs, capS)
		sol, solved, got := structuredP2(t, k, devs, capS)
		if got != want {
			t.Fatalf("structured outcome %s, simplex %s", got, want)
		}
		if sol == nil {
			return
		}
		if !relClose(obj, sol.obj) {
			t.Fatalf("objective %.17g, simplex %.17g (x=%v, simplex %v)", sol.obj, obj, sol.x, x)
		}
		checkKKT(t, solved, devs, capS, sol)
	})
}

// TestClusterStateSoakMatchesBatch drives one ClusterState through 10⁴
// random arrivals, departures and deadline changes (cancellations and
// revivals included). After every few mutations its fractions must be
// bit-identical to the batch solver's over the same tasks in arrival
// order, and its placements equal to batch LPHTA's.
func TestClusterStateSoakMatchesBatch(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(41), workload.Params{
		NumDevices: 10, NumStations: 1, NumTasks: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := arenaTasks(sc.Tasks)
	cs, err := NewClusterState(sc.Model, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	live := map[task.ID]*task.Task{}
	base := map[task.ID]units.Duration{} // deadlines at arrival
	var order []task.ID                  // arrival order
	nextIndex := 1000
	mutations := 10000
	if testing.Short() {
		mutations = 2000
	}
	for n := 1; n <= mutations; n++ {
		switch op := r.Intn(20); {
		case op < 7 || len(order) < 40:
			tk := *pool[r.Intn(len(pool))]
			tk.ID.Index = nextIndex
			nextIndex++
			if err := cs.AddTask(tk); err != nil {
				t.Fatal(err)
			}
			live[tk.ID] = &tk
			base[tk.ID] = tk.Deadline
			order = append(order, tk.ID)
		case op < 16:
			at := r.Intn(len(order))
			id := order[at]
			if err := cs.RemoveTask(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
			order = append(order[:at], order[at+1:]...)
		default:
			id := order[r.Intn(len(order))]
			d := base[id] * units.Duration(0.25+1.5*r.Float64())
			if r.Intn(8) == 0 {
				d = units.Microsecond // no subsystem makes it: cancel
			}
			if err := cs.SetDeadline(id, d); err != nil {
				t.Fatal(err)
			}
			live[id].Deadline = d
		}
		if n%25 != 0 {
			continue
		}
		res, err := cs.Solve()
		if err != nil {
			t.Fatal(err)
		}
		tasks := make([]*task.Task, len(order))
		for i, id := range order {
			tasks[i] = live[id]
		}
		ts, err := task.NewSet(tasks...)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := LPHTA(sc.Model, ts, &LPHTAOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Placements {
			if got := batch.Assignment.Of(p.ID); got != p.Level {
				t.Fatalf("mutation %d: task %v placed %v, batch %v", n, p.ID, p.Level, got)
			}
		}
		cts := clusterTasks(t, sc.Model, ts)[0]
		if len(cts) != len(cs.cts) {
			t.Fatalf("mutation %d: %d LP tasks, batch %d", n, len(cs.cts), len(cts))
		}
		if len(cts) == 0 {
			continue
		}
		var scr clusterScratch
		sol, err := scr.solveClusterLP(sc.Model.System(), 0, cts, obs.Instruments{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cts {
			if cs.cts[i].t.ID != cts[i].t.ID {
				t.Fatalf("mutation %d: LP task %d is %v, batch %v", n, i, cs.cts[i].t.ID, cts[i].t.ID)
			}
			for l := 0; l < 3; l++ {
				if math.Float64bits(cs.frac[i][l]) != math.Float64bits(sol.x[i][l]) {
					t.Fatalf("mutation %d: task %v x%d = %v, batch %v", n, cts[i].t.ID, l+1, cs.frac[i][l], sol.x[i][l])
				}
			}
		}
	}
}

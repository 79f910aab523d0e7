package core

import (
	"testing"

	"dsmec/internal/costmodel"
	"dsmec/internal/obs"
	"dsmec/internal/rng"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

func TestLPHTAPrefersLocalWhenUnconstrained(t *testing.T) {
	// Generous caps and deadlines: every task should stay on its device
	// (E_ij1 < E_ij2 < E_ij3).
	_, m := twoDeviceSystem(t, 1000, 1000)
	ts, err := task.NewSet(
		simpleTask(0, 0, 1000*units.Kilobyte, 1, 100*units.Second),
		simpleTask(0, 1, 2000*units.Kilobyte, 1, 100*units.Second),
		simpleTask(1, 0, 1500*units.Kilobyte, 1, 100*units.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LPHTA(m, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range ts.All() {
		if got := res.Assignment.Of(tk.ID); got != costmodel.SubsystemDevice {
			t.Errorf("task %v placed on %v, want device", tk.ID, got)
		}
	}
	if res.FractionalTasks != 0 {
		t.Errorf("FractionalTasks = %d, want 0 for the unconstrained LP", res.FractionalTasks)
	}
	if res.Delta != 0 {
		t.Errorf("Delta = %v, want 0 (no repair needed)", res.Delta)
	}
	if err := CheckFeasible(m, ts, res.Assignment); err != nil {
		t.Error(err)
	}
}

func TestLPHTACapForcesOffload(t *testing.T) {
	// The device is the cheapest subsystem, but its resource cap (0.5) is
	// below the task's demand (1), so the LP itself must push the task to
	// the station.
	_, m := twoDeviceSystem(t, 0.5, 1000)
	tk := simpleTask(0, 0, 1000*units.Kilobyte, 1, 100*units.Second)
	ts, err := task.NewSet(tk)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LPHTA(m, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Assignment.Of(tk.ID); got != costmodel.SubsystemStation {
		t.Errorf("task placed on %v, want station (device cap too small)", got)
	}
	if err := CheckFeasible(m, ts, res.Assignment); err != nil {
		t.Error(err)
	}
}

func TestLPHTAImpossibleDeadlineCancelled(t *testing.T) {
	_, m := twoDeviceSystem(t, 100, 100)
	tk := simpleTask(0, 0, 3000*units.Kilobyte, 1, units.Microsecond)
	ts, err := task.NewSet(tk)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LPHTA(m, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Assignment.Of(tk.ID); got != costmodel.SubsystemNone {
		t.Errorf("impossible task placed on %v, want cancelled", got)
	}
	if res.PreCancelled != 1 {
		t.Errorf("PreCancelled = %d, want 1", res.PreCancelled)
	}
}

func TestLPHTACapacityCascade(t *testing.T) {
	// Device cap 2 fits one task; station cap 2 fits one more; the third
	// must land on the cloud. All deadlines generous. The LP already
	// respects the caps, so the cascade is visible in the final placement.
	_, m := twoDeviceSystem(t, 2, 2)
	ts, err := task.NewSet(
		simpleTask(0, 0, 500*units.Kilobyte, 2, 100*units.Second),
		simpleTask(0, 1, 500*units.Kilobyte, 2, 100*units.Second),
		simpleTask(0, 2, 500*units.Kilobyte, 2, 100*units.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LPHTA(m, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(m, ts, res.Assignment); err != nil {
		t.Fatal(err)
	}
	counts := map[costmodel.Subsystem]int{}
	for _, tk := range ts.All() {
		counts[res.Assignment.Of(tk.ID)]++
	}
	if counts[costmodel.SubsystemDevice] != 1 || counts[costmodel.SubsystemStation] != 1 ||
		counts[costmodel.SubsystemCloud] != 1 {
		t.Errorf("placement counts = %v, want one per level", counts)
	}
}

func TestLPHTARepairProducesDelta(t *testing.T) {
	// Device cap 3 with two resource-2 tasks: the LP fills the device with
	// 1.5 task-units (one full task plus half of the other); largest-
	// fraction rounding puts both on the device, overloading it, and the
	// Step 5 repair migrates one to the station — producing Delta > 0.
	_, m := twoDeviceSystem(t, 3, 100)
	ts, err := task.NewSet(
		simpleTask(0, 0, 500*units.Kilobyte, 2, 100*units.Second),
		simpleTask(0, 1, 500*units.Kilobyte, 2, 100*units.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LPHTA(m, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(m, ts, res.Assignment); err != nil {
		t.Fatal(err)
	}
	counts := map[costmodel.Subsystem]int{}
	for _, tk := range ts.All() {
		counts[res.Assignment.Of(tk.ID)]++
	}
	if counts[costmodel.SubsystemDevice] != 1 || counts[costmodel.SubsystemStation] != 1 {
		t.Fatalf("placement counts = %v, want one device + one station", counts)
	}
	if res.FractionalTasks == 0 {
		t.Error("the LP solution should be fractional here")
	}
	if res.Delta <= 0 {
		t.Error("Delta should be positive after the repair migration")
	}
	if res.RatioBoundEstimate() <= 3 {
		t.Error("ratio bound should exceed 3 when Delta > 0")
	}
}

func TestLPHTAFeasibleOnRandomScenarios(t *testing.T) {
	// The central invariant: on any generated scenario, LP-HTA's output
	// satisfies C1-C5.
	for seed := int64(0); seed < 8; seed++ {
		sc, err := workload.GenerateHolistic(rng.NewSource(seed), workload.Params{
			NumDevices: 20, NumStations: 3, NumTasks: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := LPHTA(sc.Model, sc.Tasks, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFeasible(sc.Model, sc.Tasks, res.Assignment); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		metrics, err := Evaluate(sc.Model, sc.Tasks, res.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		// Placed tasks meet deadlines by construction, so unsatisfied ==
		// cancelled.
		if metrics.Unsatisfied != metrics.Cancelled {
			t.Errorf("seed %d: unsatisfied %d != cancelled %d",
				seed, metrics.Unsatisfied, metrics.Cancelled)
		}
		if res.LPObjective <= 0 {
			t.Errorf("seed %d: LP objective should be positive", seed)
		}
	}
}

func TestLPHTADeterministic(t *testing.T) {
	run := func() *HTAResult {
		sc, err := workload.GenerateHolistic(rng.NewSource(5), workload.Params{
			NumDevices: 10, NumStations: 2, NumTasks: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := LPHTA(sc.Model, sc.Tasks, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.LPObjective != b.LPObjective || a.Delta != b.Delta {
		t.Error("LPHTA not deterministic across identical runs")
	}
	if !a.Assignment.Equal(b.Assignment) {
		t.Fatal("placements differ between identical runs")
	}
}

func TestLPHTARandomizedRoundingNeedsRand(t *testing.T) {
	_, m := twoDeviceSystem(t, 100, 100)
	ts, err := task.NewSet(simpleTask(0, 0, 100*units.Kilobyte, 1, 10*units.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LPHTA(m, ts, &LPHTAOptions{Rounding: RoundRandomized}); err == nil {
		t.Error("randomized rounding without Rand should fail")
	}
	r := rng.NewSource(1).Stream("round")
	if _, err := LPHTA(m, ts, &LPHTAOptions{Rounding: RoundRandomized, Rand: r}); err != nil {
		t.Errorf("randomized rounding with Rand failed: %v", err)
	}
}

func TestLPHTARandomizedRoundingFeasible(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(77), workload.Params{
		NumDevices: 10, NumStations: 2, NumTasks: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := LPHTA(sc.Model, sc.Tasks, &LPHTAOptions{
		Rounding: RoundRandomized,
		Rand:     rng.NewSource(77).Stream("rounding"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFeasible(sc.Model, sc.Tasks, res.Assignment); err != nil {
		t.Error(err)
	}
}

func TestLPHTARepairOrders(t *testing.T) {
	// Both repair orders must produce feasible assignments; they may
	// differ in energy.
	sc, err := workload.GenerateHolistic(rng.NewSource(13), workload.Params{
		NumDevices: 10, NumStations: 2, NumTasks: 50,
		DeviceCap: 4, StationCap: 20, // tight caps force repairs
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []RepairOrder{RepairLargestFirst, RepairSmallestFirst} {
		res, err := LPHTA(sc.Model, sc.Tasks, &LPHTAOptions{Repair: order})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFeasible(sc.Model, sc.Tasks, res.Assignment); err != nil {
			t.Errorf("repair order %d: %v", order, err)
		}
	}
}

func TestArgmaxLevel(t *testing.T) {
	tests := []struct {
		x    [3]float64
		want costmodel.Subsystem
	}{
		{[3]float64{1, 0, 0}, costmodel.SubsystemDevice},
		{[3]float64{0, 1, 0}, costmodel.SubsystemStation},
		{[3]float64{0, 0, 1}, costmodel.SubsystemCloud},
		{[3]float64{0.4, 0.35, 0.25}, costmodel.SubsystemDevice},
		{[3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, costmodel.SubsystemDevice}, // tie -> cheapest
	}
	for _, tt := range tests {
		if got := argmaxLevel(tt.x); got != tt.want {
			t.Errorf("argmaxLevel(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestIsIntegral(t *testing.T) {
	if !isIntegral([3]float64{1, 0, 0}) {
		t.Error("unit vector should be integral")
	}
	if isIntegral([3]float64{0.5, 0.5, 0}) {
		t.Error("half-half should not be integral")
	}
	if !isIntegral([3]float64{1 - 1e-9, 1e-9, 0}) {
		t.Error("tiny roundoff should still count as integral")
	}
}

func TestSampleLevel(t *testing.T) {
	r := rng.NewSource(3).Stream("sample")
	counts := map[costmodel.Subsystem]int{}
	for i := 0; i < 3000; i++ {
		counts[sampleLevel(r, [3]float64{0.5, 0.3, 0.2})]++
	}
	if counts[costmodel.SubsystemDevice] < 1300 || counts[costmodel.SubsystemDevice] > 1700 {
		t.Errorf("device sampled %d/3000 times, want ~1500", counts[costmodel.SubsystemDevice])
	}
	if counts[costmodel.SubsystemCloud] < 450 || counts[costmodel.SubsystemCloud] > 750 {
		t.Errorf("cloud sampled %d/3000 times, want ~600", counts[costmodel.SubsystemCloud])
	}
	// Degenerate all-zero vector falls back to device.
	if got := sampleLevel(r, [3]float64{}); got != costmodel.SubsystemDevice {
		t.Errorf("zero vector sample = %v, want device", got)
	}
}

func TestRatioBoundEstimateEmptyResult(t *testing.T) {
	r := &HTAResult{}
	if got := r.RatioBoundEstimate(); !(got > 1e18) {
		t.Errorf("empty result ratio bound = %g, want +Inf", got)
	}
}

func TestLPHTAParallelMatchesSequential(t *testing.T) {
	// The tentpole guarantee: cluster outcomes merge in station order, so
	// the result is byte-identical however many workers solve them.
	sc, err := workload.GenerateHolistic(rng.NewSource(21), workload.Params{
		NumDevices: 24, NumStations: 4, NumTasks: 80,
		DeviceCap: 4, StationCap: 20, // tight caps exercise the repair steps too
	})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := LPHTA(sc.Model, sc.Tasks, &LPHTAOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := LPHTA(sc.Model, sc.Tasks, &LPHTAOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.LPObjective != par.LPObjective || seq.RoundedEnergy != par.RoundedEnergy ||
		seq.Delta != par.Delta ||
		seq.FractionalTasks != par.FractionalTasks || seq.PreCancelled != par.PreCancelled {
		t.Errorf("parallel result differs from sequential:\nseq %+v\npar %+v", seq, par)
	}
	if !seq.Assignment.Equal(par.Assignment) {
		t.Fatal("parallel placement differs from sequential")
	}
}

func TestLPHTARandomizedRoundingDeterministic(t *testing.T) {
	// A fixed seed pins the sampled placements; Parallelism is forced to 1
	// for RoundRandomized, so asking for workers must not change anything.
	run := func(parallelism int) *HTAResult {
		sc, err := workload.GenerateHolistic(rng.NewSource(42), workload.Params{
			NumDevices: 10, NumStations: 2, NumTasks: 40,
			DeviceCap: 4, StationCap: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := LPHTA(sc.Model, sc.Tasks, &LPHTAOptions{
			Rounding:    RoundRandomized,
			Rand:        rng.NewSource(42).Stream("rounding"),
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFeasible(sc.Model, sc.Tasks, res.Assignment); err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(1), run(8)
	for _, other := range []*HTAResult{b, c} {
		if a.RoundedEnergy != other.RoundedEnergy || a.Delta != other.Delta {
			t.Error("randomized rounding not deterministic under a fixed seed")
		}
		if !a.Assignment.Equal(other.Assignment) {
			t.Fatal("placements differ between fixed-seed runs")
		}
	}
}

func TestLPHTAFallbackKeepsUnreachableBounds(t *testing.T) {
	// Regression: the infeasible-LP fallback used to reset every upper
	// bound to 1, re-enabling variables whose bound was 0 because the
	// subsystem cannot serve the task at all (infinite time). With the
	// station unreachable but artificially cheap, the old fallback put the
	// whole fractional mass there.
	//
	// Two resource-2 tasks on a cap-2 device can place at most one unit of
	// combined device mass, but their cloud bounds (deadline/time = 0.2)
	// only absorb 0.2 each, so the bounded LP is infeasible and the
	// fallback must fire.
	sys, _ := twoDeviceSystem(t, 2, 100)
	unreachableStation := costmodel.Cost{Time: units.Forever, Energy: 0.1}
	opts := costmodel.Options{ByLevel: [4]costmodel.Cost{
		costmodel.SubsystemDevice:  {Time: 1 * units.Second, Energy: 5},
		costmodel.SubsystemStation: unreachableStation,
		costmodel.SubsystemCloud:   {Time: 10 * units.Second, Energy: 10},
	}}
	cts := []clusterTask{
		{t: simpleTask(0, 0, 500*units.Kilobyte, 2, 2*units.Second), opts: opts},
		{t: simpleTask(0, 1, 500*units.Kilobyte, 2, 2*units.Second), opts: opts},
	}
	sc := &clusterScratch{}
	sol, err := sc.solveClusterLP(sys, 0, cts, obs.Instruments{})
	if err != nil {
		t.Fatal(err)
	}
	frac := sol.x
	for i := range cts {
		if frac[i][1] != 0 {
			t.Errorf("task %d: fallback placed fraction %g on the unreachable station",
				i, frac[i][1])
		}
		if frac[i][0]+frac[i][2] < 1-1e-6 {
			t.Errorf("task %d: fractions %v do not sum to 1 over reachable subsystems",
				i, frac[i])
		}
	}
}

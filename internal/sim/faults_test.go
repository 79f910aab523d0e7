package sim

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/obs"
	"dsmec/internal/rng"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// genScenarioAssignment builds a seeded workload and its LP-HTA assignment
// with the given cluster parallelism.
func genScenarioAssignment(t *testing.T, parallelism int) (*workload.Scenario, *core.Assignment) {
	t.Helper()
	sc, err := workload.GenerateHolistic(rng.NewSource(11), workload.Params{
		NumDevices: 12, NumStations: 3, NumTasks: 36,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.LPHTA(sc.Model, sc.Tasks, &core.LPHTAOptions{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return sc, res.Assignment
}

func TestFaultsDisabledIsIdentical(t *testing.T) {
	// An *empty* fault plan exercises the fault-injection code paths
	// (attempt lifecycle, fault runner) but schedules nothing; its results
	// must be bit-identical to a nil plan, which takes the original paths.
	sc, a := genScenarioAssignment(t, 1)
	plain, err := Run(sc.Model, sc.Tasks, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := Run(sc.Model, sc.Tasks, a, Config{Faults: &FaultPlan{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Outcomes, empty.Outcomes) {
		t.Error("outcomes differ between nil and empty fault plans")
	}
	if plain.TotalEnergy != empty.TotalEnergy {
		t.Errorf("energy %v != %v", plain.TotalEnergy, empty.TotalEnergy)
	}
	if plain.TotalLatency != empty.TotalLatency || plain.Makespan != empty.Makespan {
		t.Error("latency accounting differs between nil and empty fault plans")
	}
	if plain.DeadlineViolations != empty.DeadlineViolations {
		t.Error("deadline accounting differs between nil and empty fault plans")
	}
	if empty.Faults == nil || len(empty.FaultLog) != 0 {
		t.Error("empty plan should report zero fault events but non-nil stats")
	}
	if plain.Faults != nil || plain.FaultLog != nil {
		t.Error("nil plan should not report fault stats")
	}
}

func TestFaultLogDeterministicAcrossParallelism(t *testing.T) {
	// The same (scenario, fault seed) must reproduce the exact same event
	// log and outcomes, including when the assignment was computed with a
	// different LP-HTA worker count.
	type run struct {
		log      []FaultEvent
		outcomes []TaskOutcome
		stats    FaultStats
	}
	var runs []run
	for _, parallelism := range []int{1, 1, 4} {
		sc, a := genScenarioAssignment(t, parallelism)
		plan := GenerateFaultPlan(rng.NewSource(7), sc.System, DefaultFaultParams())
		res, err := Run(sc.Model, sc.Tasks, a, Config{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{log: res.FaultLog, outcomes: res.Outcomes, stats: *res.Faults})
	}
	if len(runs[0].log) == 0 {
		t.Fatal("fault plan injected no events; the determinism check is vacuous")
	}
	for i, r := range runs[1:] {
		if !reflect.DeepEqual(runs[0].log, r.log) {
			t.Errorf("run %d: fault log differs", i+1)
		}
		if !reflect.DeepEqual(runs[0].outcomes, r.outcomes) {
			t.Errorf("run %d: outcomes differ", i+1)
		}
		if runs[0].stats != r.stats {
			t.Errorf("run %d: stats %+v != %+v", i+1, r.stats, runs[0].stats)
		}
	}
}

func TestFaultLogDeterministicAcrossShards(t *testing.T) {
	// Every event sits in one (time, seq) heap, and neither the
	// instruments nor concurrent runs may perturb its order: the same
	// fault plan must produce the same log, outcomes and stats with
	// metrics off, with a registry and trace span attached, and in four
	// runs at once. The name dates from the station-sharded heaps that
	// the single heap replaced.
	type run struct {
		log      []FaultEvent
		outcomes []TaskOutcome
		stats    FaultStats
	}
	sc, a := genScenarioAssignment(t, 1)
	plan := GenerateFaultPlan(rng.NewSource(7), sc.System, DefaultFaultParams())
	replay := func(ins obs.Instruments) (run, error) {
		res, err := Run(sc.Model, sc.Tasks, a, Config{Faults: plan, Obs: ins})
		if err != nil {
			return run{}, err
		}
		return run{log: res.FaultLog, outcomes: res.Outcomes, stats: *res.Faults}, nil
	}

	tr := obs.NewTrace("sim")
	root := tr.StartSpan("faults")
	runs := make([]run, 6)
	var err error
	if runs[0], err = replay(obs.Instruments{}); err != nil {
		t.Fatal(err)
	}
	if runs[1], err = replay(obs.Instruments{Metrics: obs.NewRegistry(), Span: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i := 2; i < len(runs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i], errs[i] = replay(obs.Instruments{Metrics: obs.NewRegistry()})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if len(runs[0].log) == 0 {
		t.Fatal("fault plan injected no events; the determinism check is vacuous")
	}
	if tr.Len() < 2 {
		t.Errorf("trace recorded %d spans, want the sim.run span under the root", tr.Len())
	}
	for i, r := range runs[1:] {
		if !reflect.DeepEqual(runs[0].log, r.log) {
			t.Errorf("run %d: fault log differs", i+1)
		}
		if !reflect.DeepEqual(runs[0].outcomes, r.outcomes) {
			t.Errorf("run %d: outcomes differ", i+1)
		}
		if runs[0].stats != r.stats {
			t.Errorf("run %d: stats %+v != %+v", i+1, r.stats, runs[0].stats)
		}
	}
}

func TestGenerateFaultPlanDeterministic(t *testing.T) {
	sc, _ := genScenarioAssignment(t, 1)
	p1 := GenerateFaultPlan(rng.NewSource(3), sc.System, DefaultFaultParams())
	p2 := GenerateFaultPlan(rng.NewSource(3), sc.System, DefaultFaultParams())
	if !reflect.DeepEqual(p1, p2) {
		t.Error("same seed should generate identical plans")
	}
	if err := p1.Validate(sc.System); err != nil {
		t.Errorf("generated plan invalid: %v", err)
	}
	p3 := GenerateFaultPlan(rng.NewSource(4), sc.System, DefaultFaultParams())
	if reflect.DeepEqual(p1, p3) {
		t.Error("different seeds should generate different plans")
	}
}

func TestStationOutageReassignsToDevice(t *testing.T) {
	// The station is down for the entire run: after the retry budget is
	// spent the task must be reassigned to its own device and complete.
	m := testModel(t)
	tk := mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(tk)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(tk.ID, costmodel.SubsystemStation)
	plan := &FaultPlan{StationOutages: []StationOutage{{Station: 0, At: 0, Repair: 10000 * units.Second}}}

	res, err := Run(m, ts, a, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := res.Outcome(tk.ID)
	if !ok {
		t.Fatalf("task lost instead of reassigned; stats %+v", res.Faults)
	}
	if o.Subsystem != costmodel.SubsystemDevice {
		t.Errorf("reassigned to %v, want device", o.Subsystem)
	}
	if !o.Faulted {
		t.Error("outcome should be marked faulted")
	}
	if res.Faults.Reassignments != 1 {
		t.Errorf("reassignments = %d, want 1", res.Faults.Reassignments)
	}
	if res.Faults.Retries == 0 || res.Faults.Lost != 0 {
		t.Errorf("stats %+v: want retries > 0 and no losses", res.Faults)
	}
}

func TestStationOutageNoReassignLosesTask(t *testing.T) {
	m := testModel(t)
	tk := mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(tk)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(tk.ID, costmodel.SubsystemStation)
	plan := &FaultPlan{
		StationOutages: []StationOutage{{Station: 0, At: 0, Repair: 10000 * units.Second}},
		Recovery:       RecoveryPolicy{NoReassign: true},
	}

	res, err := Run(m, ts, a, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 0 || res.Faults.Lost != 1 {
		t.Errorf("want the task lost, got %d placed outcomes and stats %+v", res.Placed, res.Faults)
	}
	found := false
	for _, e := range res.FaultLog {
		if e.Kind == "task.lost" {
			found = true
		}
	}
	if !found {
		t.Error("fault log missing task.lost entry")
	}
}

func TestDeviceDepartureLosesItsTasks(t *testing.T) {
	// The home device churns away: nobody can receive the result, so the
	// task is unrecoverable regardless of placement.
	m := testModel(t)
	tk := mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(tk)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(tk.ID, costmodel.SubsystemStation)
	plan := &FaultPlan{DeviceDepartures: []DeviceDeparture{{Device: 0, At: 0}}}

	res, err := Run(m, ts, a, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 0 || res.Faults.Lost != 1 {
		t.Errorf("want the task lost, got %d placed outcomes and stats %+v", res.Placed, res.Faults)
	}
	if res.Faults.Reassignments != 0 {
		t.Error("a task without a home device must not be reassigned")
	}
	if res.Faults.WastedEnergy <= 0 {
		t.Error("the aborted first attempt should count as wasted energy")
	}
}

func TestRetryAfterRepairSucceeds(t *testing.T) {
	// The outage ends between the first attempt and the first retry, so
	// the retry completes on the original placement.
	m := testModel(t)
	tk := mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(tk)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(tk.ID, costmodel.SubsystemStation)
	// The upload reaches the station CPU at exactly the upload time U;
	// keep the station down until just after that, so attempt 1 fails and
	// retry 1 (released at fail + 0.5 s backoff) finds it repaired.
	dev, err := m.System().Device(0)
	if err != nil {
		t.Fatal(err)
	}
	u := dev.Link.UploadTime(tk.LocalSize)
	plan := &FaultPlan{StationOutages: []StationOutage{{Station: 0, At: 0, Repair: u + 300*units.Millisecond}}}

	res, err := Run(m, ts, a, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := res.Outcome(tk.ID)
	if !ok {
		t.Fatalf("task not completed; stats %+v, log %v", res.Faults, res.FaultLog)
	}
	if o.Subsystem != costmodel.SubsystemStation {
		t.Errorf("completed on %v, want the original station placement", o.Subsystem)
	}
	if !o.Faulted {
		t.Error("outcome should be marked faulted")
	}
	if res.Faults.Retries != 1 || res.Faults.Reassignments != 0 || res.Faults.Lost != 0 {
		t.Errorf("stats %+v: want exactly one retry and no reassignment", res.Faults)
	}
}

func TestLinkDegradationSlowsTransfer(t *testing.T) {
	// A degraded WAN multiplies the cloud transfer's service time; the
	// completion inflates but nothing fails.
	m := testModel(t)
	tk := mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(tk)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(tk.ID, costmodel.SubsystemCloud)
	plan := &FaultPlan{LinkDegradations: []LinkDegradation{
		{Station: 0, Link: LinkWAN, At: 0, Duration: 10000 * units.Second, Slowdown: 3},
	}}

	base, err := Run(m, ts, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, ts, a, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := base.Outcome(tk.ID)
	o, _ := res.Outcome(tk.ID)
	if o.Completion <= b.Completion {
		t.Errorf("degraded completion %v should exceed clean %v", o.Completion, b.Completion)
	}
	if o.Faulted || res.Faults.FailedAttempts != 0 {
		t.Error("degradation without timeout must not fail the attempt")
	}
	if res.Faults.LinkDegradations != 1 {
		t.Errorf("degradations = %d, want 1", res.Faults.LinkDegradations)
	}
}

func TestTransferTimeoutFailsAttempt(t *testing.T) {
	// A timeout far below the WAN transfer time makes the cloud placement
	// unusable; recovery must move the task off the cloud or lose it.
	m := testModel(t)
	tk := mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(tk)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(tk.ID, costmodel.SubsystemCloud)
	plan := &FaultPlan{TransferTimeout: units.Millisecond}

	res, err := Run(m, ts, a, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.FailedAttempts == 0 {
		t.Fatal("timeout should have failed at least one attempt")
	}
	timedOut := false
	for _, e := range res.FaultLog {
		if strings.Contains(e.Detail, "transfer timeout") {
			timedOut = true
		}
	}
	if !timedOut {
		t.Errorf("fault log has no transfer timeout entry: %v", res.FaultLog)
	}
	if o, ok := res.Outcome(tk.ID); ok {
		if o.Subsystem == costmodel.SubsystemCloud {
			t.Error("a recovered task cannot have completed on the timed-out cloud path")
		}
	} else if res.Faults.Lost != 1 {
		t.Errorf("task neither completed nor counted lost: %+v", res.Faults)
	}
}

func TestRecoveryPolicyBackoff(t *testing.T) {
	p := RecoveryPolicy{}.withDefaults()
	want := []units.Duration{
		units.Duration(0.5), units.Duration(1), units.Duration(2),
		units.Duration(4), units.Duration(8), units.Duration(8), units.Duration(8),
	}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestMergeOutages(t *testing.T) {
	merged := mergeOutages([]StationOutage{
		{Station: 0, At: 5, Repair: 3}, // [5,8)
		{Station: 0, At: 1, Repair: 2}, // [1,3)
		{Station: 0, At: 7, Repair: 4}, // [7,11) overlaps [5,8) -> [5,11)
		{Station: 1, At: 2, Repair: 1}, // other station untouched
	}, 2)
	want := map[int][]interval{
		0: {{from: 1, to: 3}, {from: 5, to: 11}},
		1: {{from: 2, to: 3}},
	}
	if !reflect.DeepEqual(merged, want) {
		t.Errorf("merged = %v, want %v", merged, want)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	m := testModel(t)
	sys := m.System()
	cases := []struct {
		name string
		plan FaultPlan
	}{
		{"station out of range", FaultPlan{StationOutages: []StationOutage{{Station: 9, At: 1, Repair: 1}}}},
		{"negative outage time", FaultPlan{StationOutages: []StationOutage{{Station: 0, At: -1, Repair: 1}}}},
		{"device out of range", FaultPlan{DeviceDepartures: []DeviceDeparture{{Device: -1, At: 0}}}},
		{"unknown link", FaultPlan{LinkDegradations: []LinkDegradation{{Station: 0, Link: 9, At: 0, Duration: 1, Slowdown: 2}}}},
		{"slowdown below one", FaultPlan{LinkDegradations: []LinkDegradation{{Station: 0, Link: LinkWire, At: 0, Duration: 1, Slowdown: 0.5}}}},
		{"negative timeout", FaultPlan{TransferTimeout: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.plan.Validate(sys); err == nil {
				t.Error("want a validation error")
			}
		})
	}
	var nilPlan *FaultPlan
	if err := nilPlan.Validate(sys); err != nil {
		t.Errorf("nil plan should validate: %v", err)
	}
	if !nilPlan.Empty() {
		t.Error("nil plan should be empty")
	}
}

func TestGenerateFaultPlanMassOutage(t *testing.T) {
	sc, _ := genScenarioAssignment(t, 1)
	numStations := sc.System.NumStations()
	params := FaultParams{
		MassOutageFrac:   0.5,
		MassOutageAt:     units.Duration(0.2),
		MassOutageRepair: units.Duration(1.5),
	}
	plan := GenerateFaultPlan(rng.NewSource(3), sc.System, params)
	want := (numStations + 1) / 2 // ceil(0.5 * S)
	if len(plan.StationOutages) != want {
		t.Fatalf("mass outage took down %d stations, want %d of %d",
			len(plan.StationOutages), want, numStations)
	}
	seen := map[int]bool{}
	for _, o := range plan.StationOutages {
		if o.At != params.MassOutageAt || o.Repair != params.MassOutageRepair {
			t.Errorf("outage %+v not synchronized at %v for %v", o, params.MassOutageAt, params.MassOutageRepair)
		}
		if seen[o.Station] {
			t.Errorf("station %d taken down twice", o.Station)
		}
		seen[o.Station] = true
	}
	if err := plan.Validate(sc.System); err != nil {
		t.Errorf("mass outage plan invalid: %v", err)
	}
	// Determinism: same seed, same victims.
	again := GenerateFaultPlan(rng.NewSource(3), sc.System, params)
	if !reflect.DeepEqual(plan, again) {
		t.Error("same seed should generate identical mass-outage plans")
	}
	// The zero value changes nothing: plans without the knob are
	// byte-identical to pre-mass-outage builds (the committed goldens
	// pin this end to end).
	base := GenerateFaultPlan(rng.NewSource(3), sc.System, DefaultFaultParams())
	if len(base.StationOutages) != len(GenerateFaultPlan(rng.NewSource(3), sc.System, DefaultFaultParams()).StationOutages) {
		t.Error("default plan generation became nondeterministic")
	}
	// MassOutageRepair defaults to MeanRepair when zero.
	p2 := GenerateFaultPlan(rng.NewSource(3), sc.System, FaultParams{MassOutageFrac: 1})
	if len(p2.StationOutages) != numStations {
		t.Fatalf("frac 1 took down %d of %d stations", len(p2.StationOutages), numStations)
	}
	for _, o := range p2.StationOutages {
		if o.Repair != units.Second { // withDefaults: MeanRepair = 1 s
			t.Errorf("repair %v, want the 1 s MeanRepair default", o.Repair)
		}
	}
}

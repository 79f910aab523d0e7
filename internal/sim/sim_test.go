package sim

import (
	"math"
	"strings"
	"testing"

	"dsmec/internal/backhaul"
	"dsmec/internal/compute"
	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/mecnet"
	"dsmec/internal/radio"
	"dsmec/internal/rng"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

func testModel(t *testing.T) *costmodel.Model {
	t.Helper()
	sys := &mecnet.System{
		Devices: []mecnet.Device{
			{Station: 0, Link: radio.FourG, Proc: compute.DeviceProcessor(1 * units.Gigahertz), ResourceCap: 100},
			{Station: 0, Link: radio.WiFi, Proc: compute.DeviceProcessor(2 * units.Gigahertz), ResourceCap: 100},
			{Station: 1, Link: radio.FourG, Proc: compute.DeviceProcessor(1.5 * units.Gigahertz), ResourceCap: 100},
		},
		Stations: []mecnet.Station{
			{Proc: compute.StationProcessor(), ResourceCap: 1000},
			{Proc: compute.StationProcessor(), ResourceCap: 1000},
		},
		Cloud:       mecnet.Cloud{Proc: compute.CloudProcessor()},
		StationWire: backhaul.DefaultStationToStation(),
		CloudWire:   backhaul.DefaultStationToCloud(),
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := costmodel.New(sys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mkTask(user, index int, local, external units.ByteSize, source int) *task.Task {
	return &task.Task{
		ID: task.ID{User: user, Index: index}, Kind: task.Holistic,
		OpSize:    units.Kilobyte,
		LocalSize: local, ExternalSize: external, ExternalSource: source,
		Resource: 1, Deadline: 100 * units.Second,
	}
}

func TestUncontendedMatchesAnalytic(t *testing.T) {
	// One task at a time: simulated completion must equal the closed-form
	// t_ijl for every subsystem and data configuration.
	m := testModel(t)
	cases := []struct {
		name string
		task *task.Task
		sub  costmodel.Subsystem
	}{
		{"local no-external device", mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource), costmodel.SubsystemDevice},
		{"local no-external station", mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource), costmodel.SubsystemStation},
		{"local no-external cloud", mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource), costmodel.SubsystemCloud},
		{"same-cluster external device", mkTask(0, 0, 800*units.Kilobyte, 300*units.Kilobyte, 1), costmodel.SubsystemDevice},
		{"same-cluster external station", mkTask(0, 0, 800*units.Kilobyte, 300*units.Kilobyte, 1), costmodel.SubsystemStation},
		{"same-cluster external cloud", mkTask(0, 0, 800*units.Kilobyte, 300*units.Kilobyte, 1), costmodel.SubsystemCloud},
		{"cross-cluster external device", mkTask(0, 0, 800*units.Kilobyte, 300*units.Kilobyte, 2), costmodel.SubsystemDevice},
		{"cross-cluster external station", mkTask(0, 0, 800*units.Kilobyte, 300*units.Kilobyte, 2), costmodel.SubsystemStation},
		{"cross-cluster external cloud", mkTask(0, 0, 800*units.Kilobyte, 300*units.Kilobyte, 2), costmodel.SubsystemCloud},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, err := task.NewSet(tc.task)
			if err != nil {
				t.Fatal(err)
			}
			a := core.NewAssignment(ts)
			a.Place(tc.task.ID, tc.sub)

			res, err := Run(m, ts, a, Config{})
			if err != nil {
				t.Fatal(err)
			}
			o, _ := res.Outcome(tc.task.ID)
			if math.Abs(o.Completion.Seconds()-o.Analytic.Seconds()) > 1e-9 {
				t.Errorf("completion %v != analytic %v", o.Completion, o.Analytic)
			}
			if o.Subsystem != tc.sub {
				t.Errorf("subsystem %v, want %v", o.Subsystem, tc.sub)
			}
			if !o.DeadlineOK {
				t.Error("generous deadline should be met")
			}
		})
	}
}

// FuzzReplayAlone is the replay-alone oracle: one task, alone in a
// three-device, two-station system, replayed on each placement. The
// engine adds the same stage times as Eval but in dependency order, so
// the completion matches t_ijl only up to rounding; the attributed
// energy must sum to E_ijl, and the plan must hold exactly the stages of
// the placement's list.
func FuzzReplayAlone(f *testing.F) {
	links := [2]radio.Link{radio.FourG, radio.WiFi}
	f.Fuzz(func(t *testing.T, local, external uint32, homeLink, srcLink, source uint8, gridKappa bool) {
		sys := &mecnet.System{
			Devices: []mecnet.Device{
				{Station: 0, Link: links[homeLink%2], Proc: compute.DeviceProcessor(1 * units.Gigahertz), ResourceCap: 100},
				{Station: 0, Link: links[srcLink%2], Proc: compute.DeviceProcessor(2 * units.Gigahertz), ResourceCap: 100},
				{Station: 1, Link: links[srcLink%2], Proc: compute.DeviceProcessor(1.5 * units.Gigahertz), ResourceCap: 100},
			},
			Stations: []mecnet.Station{
				{Proc: compute.StationProcessor(), ResourceCap: 1000},
				{Proc: compute.StationProcessor(), ResourceCap: 1000},
			},
			Cloud:       mecnet.Cloud{Proc: compute.CloudProcessor()},
			StationWire: backhaul.DefaultStationToStation(),
			CloudWire:   backhaul.DefaultStationToCloud(),
		}
		if gridKappa {
			for s := range sys.Stations {
				sys.Stations[s].Proc.Kappa = compute.DefaultKappa
			}
			sys.Cloud.Proc.Kappa = compute.DefaultKappa
		}
		m, err := costmodel.New(sys, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Source 0 reads no external data, 1 reads it from the same
		// cluster, 2 from the other one.
		src, ext := int(source%3), units.ByteSize(external%(64<<20))
		if src == 0 || ext == 0 {
			src, ext = task.NoExternalSource, 0
		}
		tk := mkTask(0, 0, units.ByteSize(local%(64<<20)), ext, src)
		tk.Deadline = units.Forever
		opts, err := m.Eval(tk)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := task.NewSet(tk)
		if err != nil {
			t.Fatal(err)
		}
		relErr := func(got, want float64) float64 {
			if want == 0 {
				return math.Abs(got)
			}
			return math.Abs(got-want) / want
		}
		for _, l := range costmodel.Subsystems {
			want := opts.At(l)
			a := core.NewAssignment(ts)
			a.Place(tk.ID, l)
			res, err := Run(m, ts, a, Config{})
			if err != nil {
				t.Fatal(err)
			}
			o, _ := res.Outcome(tk.ID)
			if e := relErr(o.Completion.Seconds(), want.Time.Seconds()); e > 1e-12 {
				t.Errorf("%v: completion %v, t_ijl %v (relative error %g)", l, o.Completion, want.Time, e)
			}
			attr, err := m.Attribute(tk, l)
			if err != nil {
				t.Fatal(err)
			}
			if e := relErr(attr.Total().Joules(), want.Energy.Joules()); e > 1e-12 {
				t.Errorf("%v: attributed energy %v, E_ijl %v (relative error %g)", l, attr.Total(), want.Energy, e)
			}
			st, err := m.Stages(tk, l)
			if err != nil {
				t.Fatal(err)
			}
			eng := &engine{}
			pi := buildPlan(eng, layout{devices: 3, stations: 2}, &st, 0)
			if n := eng.plans[pi].n; n != int32(st.N) {
				t.Errorf("%v: plan holds %d stages, list has %d", l, n, st.N)
			}
			if _, n := countStages(m, ts, a); n != int(st.N) {
				t.Errorf("%v: countStages counts %d stages, list has %d", l, n, st.N)
			}
		}
	})
}

func TestLayoutIndexInvertsAt(t *testing.T) {
	lay := layout{devices: 4, stations: 3}
	for ri := range int32(lay.size()) {
		c, owner := lay.at(ri)
		if got := lay.index(c, owner); got != ri {
			t.Errorf("resource %d is %v[%d], whose index is %d", ri, c, owner, got)
		}
	}
	if c, _ := lay.at(int32(lay.size() - 1)); c != costmodel.CloudCPU {
		t.Errorf("last resource is %v, want the cloud CPU", c)
	}
}

func TestBuildPlanArenaOrder(t *testing.T) {
	// The arena order sets the roots' enqueue order and hence the event
	// sequence numbers, so it is pinned for all six plan shapes: each
	// placement with and without external data (cross-cluster, so the
	// wire hop appears where it can).
	m := testModel(t)
	local := mkTask(0, 0, 800*units.Kilobyte, 0, task.NoExternalSource)
	cross := mkTask(0, 0, 800*units.Kilobyte, 300*units.Kilobyte, 2)
	cases := []struct {
		tk   *task.Task
		l    costmodel.Subsystem
		want string
	}{
		{local, costmodel.SubsystemDevice, "dev.cpu[0]"},
		{cross, costmodel.SubsystemDevice, "dev.up[2] st.wire[1] dev.down[0] dev.cpu[0]"},
		{local, costmodel.SubsystemStation, "dev.up[0] st.cpu[0] dev.down[0]"},
		{cross, costmodel.SubsystemStation, "dev.up[2] st.wire[1] dev.up[0] st.cpu[0] dev.down[0]"},
		{local, costmodel.SubsystemCloud, "dev.up[0] st.wan[0] cloud.cpu dev.down[0]"},
		{cross, costmodel.SubsystemCloud, "dev.up[2] dev.up[0] st.wan[0] cloud.cpu dev.down[0]"},
	}
	lay := layout{devices: 3, stations: 2}
	for _, tc := range cases {
		st, err := m.Stages(tc.tk, tc.l)
		if err != nil {
			t.Fatal(err)
		}
		eng := &engine{}
		buildPlan(eng, lay, &st, 0)
		var got []string
		for _, s := range eng.stages {
			got = append(got, lay.name(s.res))
		}
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("%v with external %v: arena order %q, want %q", tc.l, tc.tk.HasExternal(), g, tc.want)
		}
	}
}

func TestQueueingDelaysSecondTask(t *testing.T) {
	// Two identical tasks on one device CPU: the second finishes at twice
	// the exec time of the first.
	m := testModel(t)
	t1 := mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource)
	t2 := mkTask(0, 1, 1000*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(t1.ID, costmodel.SubsystemDevice)
	a.Place(t2.ID, costmodel.SubsystemDevice)

	res, err := Run(m, ts, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	exec := 0.33 // 330·1e6 cycles at 1 GHz
	o1, _ := res.Outcome(t1.ID)
	o2, _ := res.Outcome(t2.ID)
	first := o1.Completion.Seconds()
	second := o2.Completion.Seconds()
	if math.Abs(first-exec) > 1e-9 {
		t.Errorf("first completion %g, want %g", first, exec)
	}
	if math.Abs(second-2*exec) > 1e-9 {
		t.Errorf("second completion %g, want %g (queued)", second, 2*exec)
	}
	if math.Abs(res.Makespan.Seconds()-2*exec) > 1e-9 {
		t.Errorf("makespan %v, want %gs", res.Makespan, 2*exec)
	}
}

func TestStationCoresAllowParallelism(t *testing.T) {
	// Two station tasks with StationCores=2 compute in parallel; their
	// uploads share nothing (different devices), so both match analytic.
	// Sizes are tuned so the uploads finish within one exec time of each
	// other: 1000 kB at 5.85 Mbps (1.368 s) vs 2200 kB at 12.88 Mbps
	// (1.366 s), with the larger task computing for 0.18 s.
	m := testModel(t)
	t1 := mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource)
	t2 := mkTask(1, 0, 2200*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(t1.ID, costmodel.SubsystemStation)
	a.Place(t2.ID, costmodel.SubsystemStation)

	res, err := Run(m, ts, a, Config{StationCores: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []task.ID{t1.ID, t2.ID} {
		o, _ := res.Outcome(id)
		if math.Abs(o.Completion.Seconds()-o.Analytic.Seconds()) > 1e-9 {
			t.Errorf("task %v completion %v != analytic %v (should run in parallel)",
				id, o.Completion, o.Analytic)
		}
	}

	// With a single core the slower path must wait.
	res1, err := Run(m, ts, a, Config{StationCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	delayed := 0
	for _, id := range []task.ID{t1.ID, t2.ID} {
		if o, _ := res1.Outcome(id); o.Completion > o.Analytic+1e-12 {
			delayed++
		}
	}
	if delayed == 0 {
		t.Error("single-core station should delay at least one task")
	}
}

func TestEnergyMatchesAnalyticModel(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(8), workload.Params{
		NumDevices: 10, NumStations: 2, NumTasks: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.LPHTA(sc.Model, sc.Tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := core.Evaluate(sc.Model, sc.Tasks, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := Run(sc.Model, sc.Tasks, res.Assignment, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(simRes.TotalEnergy.Joules()-metrics.TotalEnergy.Joules()) > 1e-6 {
		t.Errorf("sim energy %v != analytic %v", simRes.TotalEnergy, metrics.TotalEnergy)
	}
}

func TestSimulatedLatencyDominatesAnalytic(t *testing.T) {
	// FIFO queueing can only delay: every simulated completion is >= its
	// analytic time.
	sc, err := workload.GenerateHolistic(rng.NewSource(9), workload.Params{
		NumDevices: 10, NumStations: 2, NumTasks: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	hta, err := core.LPHTA(sc.Model, sc.Tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc.Model, sc.Tasks, hta.Assignment, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Placed && o.Completion < o.Analytic-1e-9 {
			t.Errorf("task %v simulated %v earlier than analytic %v", o.ID, o.Completion, o.Analytic)
		}
	}
	if res.Makespan <= 0 || res.MeanLatency() <= 0 {
		t.Error("makespan and mean latency should be positive")
	}
}

func TestCancelledTasksSkipped(t *testing.T) {
	m := testModel(t)
	t1 := mkTask(0, 0, 100*units.Kilobyte, 0, task.NoExternalSource)
	t2 := mkTask(0, 1, 100*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(t1.ID, costmodel.SubsystemDevice)
	a.Cancel(t2.ID)

	res, err := Run(m, ts, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", res.Cancelled)
	}
	if _, ok := res.Outcome(t2.ID); ok {
		t.Error("cancelled task should have no placed outcome")
	}
}

func TestRunErrors(t *testing.T) {
	m := testModel(t)
	t1 := mkTask(0, 0, 100*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(t1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, ts, core.NewAssignment(ts), Config{}); err == nil {
		t.Error("missing task should fail")
	}
	bad := core.NewAssignment(ts)
	bad.Place(t1.ID, costmodel.Subsystem(9))
	if _, err := Run(m, ts, bad, Config{}); err == nil {
		t.Error("invalid subsystem should fail")
	}
}

func TestDeadlineViolationsUnderContention(t *testing.T) {
	// Tight deadlines met analytically but missed under queueing.
	m := testModel(t)
	exec := units.Duration(0.33)
	t1 := mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource)
	t2 := mkTask(0, 1, 1000*units.Kilobyte, 0, task.NoExternalSource)
	t1.Deadline = exec + 10*units.Millisecond
	t2.Deadline = exec + 10*units.Millisecond
	ts, err := task.NewSet(t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(t1.ID, costmodel.SubsystemDevice)
	a.Place(t2.ID, costmodel.SubsystemDevice)

	res, err := Run(m, ts, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineViolations != 1 {
		t.Errorf("DeadlineViolations = %d, want 1 (the queued task)", res.DeadlineViolations)
	}
}

func TestMeanLatencyEmpty(t *testing.T) {
	r := &Result{}
	if r.MeanLatency() != 0 {
		t.Error("empty result mean latency should be 0")
	}
}

func TestRunReleasesStaggersLoad(t *testing.T) {
	// Two identical tasks on the same device CPU: released together the
	// second queues; released after the first finishes, both match the
	// analytic time.
	m := testModel(t)
	t1 := mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource)
	t2 := mkTask(0, 1, 1000*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(t1.ID, costmodel.SubsystemDevice)
	a.Place(t2.ID, costmodel.SubsystemDevice)

	res, err := RunReleases(m, ts, a, Config{}, map[task.ID]units.Duration{
		t2.ID: 0.5 * units.Second, // after t1's 0.33 s execution
	})
	if err != nil {
		t.Fatal(err)
	}
	o1, _ := res.Outcome(t1.ID)
	o2, _ := res.Outcome(t2.ID)
	if math.Abs(o1.Sojourn.Seconds()-0.33) > 1e-9 {
		t.Errorf("t1 sojourn = %v, want 0.33s", o1.Sojourn)
	}
	if math.Abs(o2.Sojourn.Seconds()-0.33) > 1e-9 {
		t.Errorf("t2 sojourn = %v, want 0.33s (released after t1 finished)", o2.Sojourn)
	}
	if o2.Release != 0.5*units.Second {
		t.Errorf("t2 release = %v, want 0.5s", o2.Release)
	}
	if math.Abs(o2.Completion.Seconds()-0.83) > 1e-9 {
		t.Errorf("t2 completion = %v, want 0.83s absolute", o2.Completion)
	}
	if math.Abs(res.Makespan.Seconds()-0.83) > 1e-9 {
		t.Errorf("makespan = %v, want 0.83s", res.Makespan)
	}
}

func TestRunReleasesOverlapStillQueues(t *testing.T) {
	m := testModel(t)
	t1 := mkTask(0, 0, 1000*units.Kilobyte, 0, task.NoExternalSource)
	t2 := mkTask(0, 1, 1000*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(t1.ID, costmodel.SubsystemDevice)
	a.Place(t2.ID, costmodel.SubsystemDevice)

	// Released mid-execution of t1: waits 0.23 s, sojourn 0.56 s.
	res, err := RunReleases(m, ts, a, Config{}, map[task.ID]units.Duration{
		t2.ID: 0.1 * units.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := res.Outcome(t2.ID)
	if math.Abs(o2.Sojourn.Seconds()-0.56) > 1e-9 {
		t.Errorf("t2 sojourn = %v, want 0.56s", o2.Sojourn)
	}
}

func TestRunReleasesInvalid(t *testing.T) {
	m := testModel(t)
	t1 := mkTask(0, 0, 100*units.Kilobyte, 0, task.NoExternalSource)
	ts, err := task.NewSet(t1)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(ts)
	a.Place(t1.ID, costmodel.SubsystemDevice)
	if _, err := RunReleases(m, ts, a, Config{}, map[task.ID]units.Duration{
		t1.ID: -1,
	}); err == nil {
		t.Error("negative release should fail")
	}
	if _, err := RunReleases(m, ts, a, Config{}, map[task.ID]units.Duration{
		t1.ID: units.Forever,
	}); err == nil {
		t.Error("infinite release should fail")
	}
}

func TestSpreadingArrivalsReducesMisses(t *testing.T) {
	// The quasi-static worst case (everything at once) versus the same
	// workload spread over a window: spreading must not increase misses.
	sc, err := workload.GenerateHolistic(rng.NewSource(55), workload.Params{
		NumDevices: 15, NumStations: 3, NumTasks: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.LPHTA(sc.Model, sc.Tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Run(sc.Model, sc.Tasks, res.Assignment, Config{})
	if err != nil {
		t.Fatal(err)
	}

	releases := make(map[task.ID]units.Duration, sc.Tasks.Len())
	r := rng.NewSource(55).Stream("arrivals")
	for _, tk := range sc.Tasks.All() {
		releases[tk.ID] = units.Duration(r.Float64() * 60) // one minute window
	}
	spread, err := RunReleases(sc.Model, sc.Tasks, res.Assignment, Config{}, releases)
	if err != nil {
		t.Fatal(err)
	}
	if spread.DeadlineViolations > batch.DeadlineViolations {
		t.Errorf("spreading arrivals increased misses: %d vs %d",
			spread.DeadlineViolations, batch.DeadlineViolations)
	}
	if spread.MeanLatency() > batch.MeanLatency() {
		t.Errorf("spreading arrivals increased mean sojourn: %v vs %v",
			spread.MeanLatency(), batch.MeanLatency())
	}
}

package costmodel

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dsmec/internal/backhaul"
	"dsmec/internal/compute"
	"dsmec/internal/mecnet"
	"dsmec/internal/radio"
	"dsmec/internal/rng"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

// testSystem builds a deterministic two-cluster system:
// device 0 (4G, 1 GHz) and device 1 (Wi-Fi, 2 GHz) on station 0;
// device 2 (4G, 1.5 GHz) on station 1.
func testSystem(t *testing.T) *mecnet.System {
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
	return sys
}

func newModel(t *testing.T, sys *mecnet.System) *Model {
	t.Helper()
	m, err := New(sys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSubsystemString(t *testing.T) {
	tests := []struct {
		s    Subsystem
		want string
	}{
		{SubsystemNone, "none"},
		{SubsystemDevice, "device"},
		{SubsystemStation, "station"},
		{SubsystemCloud, "cloud"},
		{Subsystem(9), "Subsystem(9)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil); err == nil {
		t.Error("New(nil) should fail")
	}
	sys := testSystem(t)
	m, err := New(sys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.System() != sys {
		t.Error("System() should return the constructor argument")
	}
	// Defaults: λ = 330 cycles/byte, η = 0.2.
	if got := m.Cycles(100); got != 33000 {
		t.Errorf("default Cycles(100B) = %v, want 33000", got)
	}
	if got := m.ResultSize(1000); got != 200 {
		t.Errorf("default ResultSize(1000B) = %v, want 200", got)
	}
}

func TestEvalLocalOnlyTaskOnDevice(t *testing.T) {
	// A task with no external data run locally: zero transmission, pure
	// compute. α = 1000 kB on a 1 GHz device.
	m := newModel(t, testSystem(t))
	tk := &task.Task{
		ID: task.ID{User: 0, Index: 0}, Kind: task.Holistic,
		LocalSize: 1000 * units.Kilobyte, ExternalSource: task.NoExternalSource,
		Resource: 1, Deadline: 10 * units.Second,
	}
	opts, err := m.Eval(tk)
	if err != nil {
		t.Fatal(err)
	}
	got := opts.At(SubsystemDevice)
	// t = λX/f = 330·1e6/1e9 = 0.33 s; E = κλXf² = 1e-27·330e6·1e18 = 0.33 J.
	if math.Abs(got.Time.Seconds()-0.33) > 1e-9 {
		t.Errorf("device time = %v, want 0.33s", got.Time)
	}
	if math.Abs(got.Energy.Joules()-0.33) > 1e-9 {
		t.Errorf("device energy = %v, want 0.33J", got.Energy)
	}
}

func TestEvalLocalOnlyTaskOnStation(t *testing.T) {
	// Station run: upload α over 4G, station computes, download η·α.
	m := newModel(t, testSystem(t))
	alpha := 1000 * units.Kilobyte
	tk := &task.Task{
		ID: task.ID{User: 0, Index: 0}, Kind: task.Holistic,
		LocalSize: alpha, ExternalSource: task.NoExternalSource,
		Resource: 1, Deadline: 10 * units.Second,
	}
	opts, err := m.Eval(tk)
	if err != nil {
		t.Fatal(err)
	}
	got := opts.At(SubsystemStation)

	up := alpha.TransferTime(5.85 * units.MbitPerSecond)
	down := (200 * units.Kilobyte).TransferTime(13.76 * units.MbitPerSecond)
	exec := units.Cycles(330 * 1e6).TimeAt(4 * units.Gigahertz)
	wantTime := up + down + exec
	if math.Abs(got.Time.Seconds()-wantTime.Seconds()) > 1e-9 {
		t.Errorf("station time = %v, want %v", got.Time, wantTime)
	}
	wantEnergy := units.Power(7.32).EnergyOver(up) + units.Power(1.6).EnergyOver(down)
	if math.Abs(got.Energy.Joules()-wantEnergy.Joules()) > 1e-9 {
		t.Errorf("station energy = %v, want %v", got.Energy, wantEnergy)
	}
}

func TestEvalCloudAddsBackhaul(t *testing.T) {
	m := newModel(t, testSystem(t))
	alpha := 1000 * units.Kilobyte
	tk := &task.Task{
		ID: task.ID{User: 0, Index: 0}, Kind: task.Holistic,
		LocalSize: alpha, ExternalSource: task.NoExternalSource,
		Resource: 1, Deadline: 10 * units.Second,
	}
	opts, err := m.Eval(tk)
	if err != nil {
		t.Fatal(err)
	}
	cloud := opts.At(SubsystemCloud)
	station := opts.At(SubsystemStation)

	// Cloud path must include the 250 ms WAN latency plus serialization of
	// α + η·α = 1200 kB at 100 Mbps = 96 ms, and the slower cloud CPU.
	wan := m.System().CloudWire.TransferTime(1200 * units.Kilobyte)
	if wan.Seconds() <= 0.25 {
		t.Fatalf("test setup: WAN time %v should exceed latency", wan)
	}
	execCloud := units.Cycles(330 * 1e6).TimeAt(2.4 * units.Gigahertz)
	execStation := units.Cycles(330 * 1e6).TimeAt(4 * units.Gigahertz)
	wantDelta := wan + execCloud - execStation
	gotDelta := cloud.Time - station.Time
	if math.Abs(gotDelta.Seconds()-wantDelta.Seconds()) > 1e-9 {
		t.Errorf("cloud-station time delta = %v, want %v", gotDelta, wantDelta)
	}
	// E_ij3 > E_ij2 (paper, Section II.B).
	if cloud.Energy <= station.Energy {
		t.Errorf("cloud energy %v should exceed station energy %v", cloud.Energy, station.Energy)
	}
}

func TestEvalExternalSameCluster(t *testing.T) {
	// Task on device 0 with external data held by device 1 (same cluster).
	m := newModel(t, testSystem(t))
	alpha, beta := 500*units.Kilobyte, 250*units.Kilobyte
	tk := &task.Task{
		ID: task.ID{User: 0, Index: 0}, Kind: task.Holistic,
		LocalSize: alpha, ExternalSize: beta, ExternalSource: 1,
		Resource: 1, Deadline: 10 * units.Second,
	}
	opts, err := m.Eval(tk)
	if err != nil {
		t.Fatal(err)
	}

	// l = 1: β up from device 1 (Wi-Fi), β down to device 0 (4G), compute.
	dev := opts.At(SubsystemDevice)
	upL := beta.TransferTime(12.88 * units.MbitPerSecond)
	downI := beta.TransferTime(13.76 * units.MbitPerSecond)
	exec := units.Cycles(330 * 750e3).TimeAt(1 * units.Gigahertz)
	wantTime := upL + downI + exec
	if math.Abs(dev.Time.Seconds()-wantTime.Seconds()) > 1e-9 {
		t.Errorf("device time = %v, want %v", dev.Time, wantTime)
	}
	wantEnergy := units.Power(15.7).EnergyOver(upL) + // device 1 Wi-Fi tx
		units.Power(1.6).EnergyOver(downI) + // device 0 4G rx
		units.Energy(1e-27*330*750e3*1e18) // κλ(α+β)f²
	if math.Abs(dev.Energy.Joules()-wantEnergy.Joules()) > 1e-9 {
		t.Errorf("device energy = %v, want %v", dev.Energy, wantEnergy)
	}

	// l = 2: parallel uploads; external path is max'd with local.
	st := opts.At(SubsystemStation)
	localUp := alpha.TransferTime(5.85 * units.MbitPerSecond)
	extUp := beta.TransferTime(12.88 * units.MbitPerSecond)
	resultDown := (150 * units.Kilobyte).TransferTime(13.76 * units.MbitPerSecond)
	execS := units.Cycles(330 * 750e3).TimeAt(4 * units.Gigahertz)
	wantST := units.DurationMax(extUp, localUp) + resultDown + execS
	if math.Abs(st.Time.Seconds()-wantST.Seconds()) > 1e-9 {
		t.Errorf("station time = %v, want %v", st.Time, wantST)
	}
}

func TestEvalExternalCrossCluster(t *testing.T) {
	// Task on device 0 (station 0) with external data on device 2
	// (station 1): the station wire must appear in l = 1 and l = 2 but not
	// in the l = 3 formulas (per the paper's equations).
	sys := testSystem(t)
	m := newModel(t, sys)
	alpha, beta := 500*units.Kilobyte, 250*units.Kilobyte
	cross := &task.Task{
		ID: task.ID{User: 0, Index: 0}, Kind: task.Holistic,
		LocalSize: alpha, ExternalSize: beta, ExternalSource: 2,
		Resource: 1, Deadline: 10 * units.Second,
	}
	// Same-cluster variant with an identical source link (device 2 is 4G;
	// no same-cluster 4G peer exists, so build one by comparing formulas
	// directly instead: cross-cluster must exceed same-cluster by the wire
	// terms when the source links match).
	optsCross, err := m.Eval(cross)
	if err != nil {
		t.Fatal(err)
	}

	wireT := sys.StationWire.TransferTime(beta)
	wireE := sys.StationWire.TransferEnergy(beta)

	// Reconstruct expected l = 1 from first principles.
	dev := optsCross.At(SubsystemDevice)
	upL := beta.TransferTime(5.85 * units.MbitPerSecond) // device 2 is 4G
	downI := beta.TransferTime(13.76 * units.MbitPerSecond)
	exec := units.Cycles(330 * 750e3).TimeAt(1 * units.Gigahertz)
	wantTime := upL + downI + exec + wireT
	if math.Abs(dev.Time.Seconds()-wantTime.Seconds()) > 1e-9 {
		t.Errorf("cross-cluster device time = %v, want %v", dev.Time, wantTime)
	}
	wantEnergy := units.Power(7.32).EnergyOver(upL) +
		units.Power(1.6).EnergyOver(downI) +
		units.Energy(1e-27*330*750e3*1e18) + wireE
	if math.Abs(dev.Energy.Joules()-wantEnergy.Joules()) > 1e-9 {
		t.Errorf("cross-cluster device energy = %v, want %v", dev.Energy, wantEnergy)
	}

	// l = 2: the external path includes the wire inside the max.
	st := optsCross.At(SubsystemStation)
	localUp := alpha.TransferTime(5.85 * units.MbitPerSecond)
	extUp := upL + wireT
	resultDown := (150 * units.Kilobyte).TransferTime(13.76 * units.MbitPerSecond)
	execS := units.Cycles(330 * 750e3).TimeAt(4 * units.Gigahertz)
	wantST := units.DurationMax(extUp, localUp) + resultDown + execS
	if math.Abs(st.Time.Seconds()-wantST.Seconds()) > 1e-9 {
		t.Errorf("cross-cluster station time = %v, want %v", st.Time, wantST)
	}

	// l = 3: per the paper's t_ij3/E_ij3, no station-wire term appears;
	// verify by checking the cloud cost has no wireE dependence: recompute
	// with a free station wire and compare.
	sysFree := testSystem(t)
	sysFree.StationWire.EnergyPerByte = 0
	sysFree.StationWire.Latency = 0
	if err := sysFree.Validate(); err != nil {
		t.Fatal(err)
	}
	mFree := newModel(t, sysFree)
	optsFree, err := mFree.Eval(cross)
	if err != nil {
		t.Fatal(err)
	}
	if optsFree.At(SubsystemCloud) != optsCross.At(SubsystemCloud) {
		t.Error("cloud cost should not depend on the station-to-station wire")
	}
	if optsFree.At(SubsystemDevice) == optsCross.At(SubsystemDevice) {
		t.Error("device cost should depend on the station-to-station wire")
	}
}

func TestEvalErrors(t *testing.T) {
	m := newModel(t, testSystem(t))
	badUser := &task.Task{
		ID: task.ID{User: 9, Index: 0}, Kind: task.Holistic,
		LocalSize: units.Kilobyte, ExternalSource: task.NoExternalSource,
		Resource: 1, Deadline: units.Second,
	}
	if _, err := m.Eval(badUser); err == nil {
		t.Error("Eval with out-of-range user should fail")
	}
	badSource := &task.Task{
		ID: task.ID{User: 0, Index: 0}, Kind: task.Holistic,
		LocalSize: units.Kilobyte, ExternalSize: units.Kilobyte, ExternalSource: 9,
		Resource: 1, Deadline: units.Second,
	}
	if _, err := m.Eval(badSource); err == nil {
		t.Error("Eval with out-of-range source should fail")
	}
	if _, err := m.Eval(badSource); err == nil || !strings.Contains(err.Error(), "external source") {
		t.Error("error should mention the external source")
	}
}

func TestEnergyOrderingTypicalTasks(t *testing.T) {
	// The paper's working assumption E_ij1 < E_ij2 < E_ij3 (Corollary 1
	// precondition) should hold for typical evaluation-sized tasks.
	m := newModel(t, testSystem(t))
	r := rng.NewSource(3).Stream("tasks")
	for trial := 0; trial < 200; trial++ {
		alpha := units.ByteSize(rng.UniformInt(r, 100, 3000)) * units.Kilobyte
		beta := alpha.Scale(rng.Uniform(r, 0, 0.5))
		user := rng.UniformInt(r, 0, 2)
		source := task.NoExternalSource
		if beta > 0 {
			source = (user + 1) % 3
		}
		tk := &task.Task{
			ID: task.ID{User: user, Index: trial}, Kind: task.Holistic,
			LocalSize: alpha, ExternalSize: beta, ExternalSource: source,
			Resource: 1, Deadline: 100 * units.Second,
		}
		opts, err := m.Eval(tk)
		if err != nil {
			t.Fatal(err)
		}
		e1 := opts.At(SubsystemDevice).Energy
		e2 := opts.At(SubsystemStation).Energy
		e3 := opts.At(SubsystemCloud).Energy
		if !(e1 < e2 && e2 < e3) {
			t.Fatalf("trial %d: energy ordering violated: E1=%v E2=%v E3=%v (α=%v β=%v)",
				trial, e1, e2, e3, alpha, beta)
		}
	}
}

func TestCostsScaleWithInput(t *testing.T) {
	// Property: larger input never decreases any time or energy.
	m := newModel(t, testSystem(t))
	f := func(a, b uint16) bool {
		small, big := units.ByteSize(a)*units.Kilobyte, units.ByteSize(b)*units.Kilobyte
		if small > big {
			small, big = big, small
		}
		mk := func(size units.ByteSize) *task.Task {
			return &task.Task{
				ID: task.ID{User: 0, Index: 0}, Kind: task.Holistic,
				LocalSize: size, ExternalSource: task.NoExternalSource,
				Resource: 1, Deadline: units.Second,
			}
		}
		o1, err := m.Eval(mk(small))
		if err != nil {
			return false
		}
		o2, err := m.Eval(mk(big))
		if err != nil {
			return false
		}
		for _, l := range Subsystems {
			if o1.At(l).Time > o2.At(l).Time || o1.At(l).Energy > o2.At(l).Energy {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refEval is Eval as the closed forms of Section II wrote it before the
// stage list existed: one hand-written function per subsystem. It is the
// bit-for-bit reference TestEvalMatchesClosedFormBits holds Eval to.
func refEval(m *Model, t *task.Task) Options {
	dev := &m.sys.Devices[t.ID.User]
	var src *mecnet.Device
	sameClust := false
	if t.HasExternal() {
		src = &m.sys.Devices[t.ExternalSource]
		sameClust = src.Station == dev.Station
	}
	input := t.InputSize()
	cycles := m.cycles.Cycles(input)
	result := m.result.ResultSize(input)

	var opts Options
	opts.ByLevel[SubsystemDevice] = refOnDevice(m, t, dev, src, sameClust, cycles)
	opts.ByLevel[SubsystemStation] = refOnStation(m, t, dev, src, sameClust, cycles, result)
	opts.ByLevel[SubsystemCloud] = refOnCloud(m, t, dev, src, cycles, result)
	return opts
}

func refOnDevice(m *Model, t *task.Task, dev, src *mecnet.Device, sameClust bool, cycles units.Cycles) Cost {
	var c Cost
	if t.HasExternal() {
		beta := t.ExternalSize
		c.Time += src.Link.UploadTime(beta) + dev.Link.DownloadTime(beta)
		c.Energy += src.Link.UploadEnergy(beta) + dev.Link.DownloadEnergy(beta)
		if !sameClust {
			c.Time += m.sys.StationWire.TransferTime(beta)
			c.Energy += m.sys.StationWire.TransferEnergy(beta)
		}
	}
	c.Time += dev.Proc.ExecTime(cycles)
	c.Energy += dev.Proc.ExecEnergy(cycles)
	return c
}

func refOnStation(m *Model, t *task.Task, dev, src *mecnet.Device, sameClust bool, cycles units.Cycles, result units.ByteSize) Cost {
	var c Cost
	externalPath := units.Duration(0)
	if t.HasExternal() {
		beta := t.ExternalSize
		externalPath = src.Link.UploadTime(beta)
		c.Energy += src.Link.UploadEnergy(beta)
		if !sameClust {
			externalPath += m.sys.StationWire.TransferTime(beta)
			c.Energy += m.sys.StationWire.TransferEnergy(beta)
		}
	}
	localPath := dev.Link.UploadTime(t.LocalSize)
	c.Energy += dev.Link.UploadEnergy(t.LocalSize)

	c.Time += units.DurationMax(externalPath, localPath)
	c.Time += dev.Link.DownloadTime(result)
	c.Energy += dev.Link.DownloadEnergy(result)

	station := &m.sys.Stations[dev.Station]
	c.Time += station.Proc.ExecTime(cycles)
	c.Energy += station.Proc.ExecEnergy(cycles)
	return c
}

func refOnCloud(m *Model, t *task.Task, dev, src *mecnet.Device, cycles units.Cycles, result units.ByteSize) Cost {
	var c Cost
	externalPath := units.Duration(0)
	if t.HasExternal() {
		beta := t.ExternalSize
		externalPath = src.Link.UploadTime(beta)
		c.Energy += src.Link.UploadEnergy(beta)
	}
	localPath := dev.Link.UploadTime(t.LocalSize)
	c.Energy += dev.Link.UploadEnergy(t.LocalSize)

	c.Time += units.DurationMax(externalPath, localPath)
	c.Time += dev.Link.DownloadTime(result)
	c.Energy += dev.Link.DownloadEnergy(result)

	wan := t.InputSize() + result
	c.Time += m.sys.CloudWire.TransferTime(wan)
	c.Energy += m.sys.CloudWire.TransferEnergy(wan)

	c.Time += m.sys.Cloud.Proc.ExecTime(cycles)
	c.Energy += m.sys.Cloud.Proc.ExecEnergy(cycles)
	return c
}

// randomTask draws a task on a random device of sys. kind 0 has no
// external data, kind 1 reads it from another device of the same
// cluster, kind 2 from a device of another cluster.
func randomTask(r *rand.Rand, sys *mecnet.System, index, kind int) *task.Task {
	n := sys.NumDevices()
	user := rng.UniformInt(r, 0, n-1)
	tk := &task.Task{
		ID: task.ID{User: user, Index: index}, Kind: task.Holistic,
		LocalSize:      units.ByteSize(rng.UniformInt(r, 1, 4_000_000)),
		ExternalSource: task.NoExternalSource,
		Resource:       1, Deadline: 10 * units.Second,
	}
	if kind == 0 {
		return tk
	}
	home := sys.Devices[user].Station
	for {
		src := rng.UniformInt(r, 0, n-1)
		same := sys.Devices[src].Station == home
		if src != user && same == (kind == 1) {
			tk.ExternalSource = src
			break
		}
	}
	tk.ExternalSize = units.ByteSize(rng.UniformInt(r, 1, 3_000_000))
	return tk
}

func TestEvalMatchesClosedFormBits(t *testing.T) {
	// Property: Eval reproduces the per-subsystem closed forms bit for
	// bit, over generated systems with random λ and η, for tasks without
	// external data and with same- and cross-cluster external data, and
	// with grid CPUs both free (κ = 0) and charged (κ > 0).
	r := rng.NewSource(41).Stream("bits")
	placements := 0
	for sysIdx := 0; sysIdx < 40; sysIdx++ {
		sys, err := mecnet.Generate(r, mecnet.GenerateParams{NumDevices: 12, NumStations: 3})
		if err != nil {
			t.Fatal(err)
		}
		if sysIdx%2 == 1 {
			for s := range sys.Stations {
				sys.Stations[s].Proc.Kappa = compute.DefaultKappa
			}
			sys.Cloud.Proc.Kappa = compute.DefaultKappa
		}
		m, err := New(sys,
			compute.LinearCycles{PerByte: rng.Uniform(r, 50, 1000)},
			compute.ProportionalResult{Ratio: rng.Uniform(r, 0.01, 1.5)})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 150; trial++ {
			tk := randomTask(r, sys, trial, trial%3)
			got, err := m.Eval(tk)
			if err != nil {
				t.Fatal(err)
			}
			want := refEval(m, tk)
			for _, l := range Subsystems {
				g, w := got.At(l), want.At(l)
				if math.Float64bits(float64(g.Time)) != math.Float64bits(float64(w.Time)) ||
					math.Float64bits(float64(g.Energy)) != math.Float64bits(float64(w.Energy)) {
					t.Fatalf("system %d task %+v on %v: Eval %+v, closed form %+v", sysIdx, tk, l, g, w)
				}
				placements++
			}
		}
	}
	if placements != 40*150*3 {
		t.Fatalf("checked %d placements", placements)
	}
}

package costmodel

import (
	"fmt"

	"dsmec/internal/mecnet"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

// Class is the kind of resource a stage occupies. With the stage's owner
// it names one resource of the topology.
type Class uint8

// The resource classes. Device classes are owned by a device index,
// station classes by a station index, and the cloud CPU by 0.
const (
	DevUp    Class = iota // device uplink radio
	DevDown               // device downlink radio
	DevCPU                // device CPU
	StWire                // station↔station wire port
	StWAN                 // station↔cloud WAN port
	StCPU                 // station's small-scale cloud
	CloudCPU              // the remote cloud
)

var classNames = [...]string{"dev.up", "dev.down", "dev.cpu", "st.wire", "st.wan", "st.cpu", "cloud.cpu"}

// String returns the class label, e.g. "dev.up".
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// MaxStages bounds the length of a stage list.
const MaxStages = 5

// noStage marks an unused predecessor slot.
const noStage = int8(-1)

// Stage is one transfer or computation of a placement.
type Stage struct {
	Time   units.Duration
	Energy units.Energy
	Owner  int32 // device or station index; 0 for the cloud
	// Payer is the device whose battery pays Energy, or Infrastructure
	// for the grid-powered wires and CPUs.
	Payer int32
	Class Class
	// After holds the list indices of the stages this one waits for;
	// unused slots are -1.
	After [2]int8
}

// Stages is one placement's stage list, List[:N], in the order Section II
// sums its terms. That order is not always the order the stages run in:
// a download can be listed before the wire hop or the computation it
// waits for, so After carries the dependencies.
//
// The first Ext stages form the external-upload branch and the next
// Local the local-upload branch; the two run in parallel, and every
// later stage waits for both.
type Stages struct {
	List          [MaxStages]Stage
	N, Ext, Local int8
}

// Cost returns t_ijl and E_ijl. E_ijl sums every stage's energy in list
// order. t_ijl is the longer of the two upload branches plus every later
// stage's time, added in list order: float addition is not associative,
// and this order reproduces the closed forms bit for bit.
func (s *Stages) Cost() Cost {
	var c Cost
	var ext, local units.Duration
	up := s.Ext + s.Local
	for i := range s.Ext {
		ext += s.List[i].Time
	}
	for i := s.Ext; i < up; i++ {
		local += s.List[i].Time
	}
	c.Time = units.DurationMax(ext, local)
	for i := up; i < s.N; i++ {
		c.Time += s.List[i].Time
	}
	for i := range s.N {
		c.Energy += s.List[i].Energy
	}
	return c
}

// add appends a stage waiting for stages a and b (noStage for none) and
// returns its index. Device classes bill their owner, the others
// Infrastructure.
func (s *Stages) add(c Class, owner int, time units.Duration, energy units.Energy, a, b int8) int8 {
	i := s.N
	st := &s.List[i]
	st.Time, st.Energy, st.Owner, st.Payer, st.Class = time, energy, int32(owner), int32(owner), c
	if c >= StWire {
		st.Payer = Infrastructure
	}
	st.After = [2]int8{a, b}
	s.N++
	return i
}

// placement holds what every stage list of one task reads.
type placement struct {
	t      *task.Task
	home   int
	dev    *mecnet.Device
	srcDev *mecnet.Device // L_ij; nil without external data
	cross  bool           // the external data lives in another cluster
	cycles units.Cycles
	result units.ByteSize
}

func (m *Model) place(t *task.Task) (placement, error) {
	dev, err := m.sys.Device(t.ID.User)
	if err != nil {
		return placement{}, fmt.Errorf("costmodel: task %v: %w", t.ID, err)
	}
	p := placement{t: t, home: t.ID.User, dev: dev}
	if t.HasExternal() {
		p.srcDev, err = m.sys.Device(t.ExternalSource)
		if err != nil {
			return placement{}, fmt.Errorf("costmodel: task %v external source: %w", t.ID, err)
		}
		p.cross = p.srcDev.Station != dev.Station
	}
	input := t.InputSize()
	p.cycles = m.cycles.Cycles(input)
	p.result = m.result.ResultSize(input)
	return p, nil
}

// stages lists the stages of placement l into s; an invalid l yields an
// empty list.
func (m *Model) stages(s *Stages, p *placement, l Subsystem) {
	s.N, s.Ext, s.Local = 0, 0, 0
	if l < SubsystemDevice || l > SubsystemCloud {
		return
	}
	t, dev, sys := p.t, p.dev, m.sys
	beta := t.ExternalSize
	// With external data, every placement starts with device L_ij
	// uploading β: the external-upload branch.
	ext := noStage
	if p.srcDev != nil {
		ext = s.add(DevUp, t.ExternalSource, p.srcDev.Link.UploadTime(beta), p.srcDev.Link.UploadEnergy(beta), noStage, noStage)
		s.Ext = 1
	}
	switch l {
	case SubsystemDevice:
		// l = 1: retrieve β_ij from the source device (via the stations),
		// then compute locally.
		//
		//	t^(R) = β/r_L^(U) + β/r_i^(D)            (+ t_B,B(β) across clusters)
		//	E^(R) = e_L^(T)(β) + e_i^(R)(β)          (+ e_B,B(β) across clusters)
		//	t^(C) = λ(α+β)/f_i,  E^(C) = κλ(α+β)f_i²
		//
		// The wire hop runs before the download but is summed after it.
		prev := ext
		if ext != noStage {
			prev = s.add(DevDown, p.home, dev.Link.DownloadTime(beta), dev.Link.DownloadEnergy(beta), ext, noStage)
			if p.cross {
				s.List[prev].After[0] = s.wire(p, sys, ext)
			}
		}
		s.add(DevCPU, p.home, dev.Proc.ExecTime(p.cycles), dev.Proc.ExecEnergy(p.cycles), prev, noStage)

	case SubsystemStation:
		// l = 2: the local data goes up from device i while the external
		// data goes up from device L (in parallel, hence the max); the
		// station computes (free, grid powered); the result comes back
		// down to device i.
		//
		//	t^(R) = max{β/r_L^(U) (+ t_B,B(β)), α/r_i^(U)} + η(α+β)/r_i^(D)
		//	E^(R) = e_L^(T)(β) + e_i^(T)(α) + e_i^(R)(η(α+β)) (+ e_B,B(β))
		//	t^(C) = λ(α+β)/f_s
		if p.cross {
			ext = s.wire(p, sys, ext)
			s.Ext++
		}
		local, down := s.localAndDownload(p)
		proc := &sys.Stations[dev.Station].Proc
		s.List[down].After[0] = s.add(StCPU, dev.Station, proc.ExecTime(p.cycles), proc.ExecEnergy(p.cycles), ext, local)

	case SubsystemCloud:
		// l = 3: both inputs go up in parallel as for l = 2, everything
		// (inputs plus result) crosses the station-to-cloud backhaul in
		// one WAN crossing, the cloud computes, and the result comes down
		// to device i.
		//
		//	t^(R) = max{β/r_L^(U), α/r_i^(U)} + η(α+β)/r_i^(D)
		//	        + t_B,C(α+β+η(α+β))
		//	E^(R) = e_L^(T)(β) + e_i^(T)(α) + e_i^(R)(η(α+β))
		//	        + e_B,C(α+β+η(α+β))
		//	t^(C) = λ(α+β)/f_c
		local, down := s.localAndDownload(p)
		wan := t.InputSize() + p.result
		hop := s.add(StWAN, dev.Station, sys.CloudWire.TransferTime(wan), sys.CloudWire.TransferEnergy(wan), ext, local)
		proc := &sys.Cloud.Proc
		s.List[down].After[0] = s.add(CloudCPU, 0, proc.ExecTime(p.cycles), proc.ExecEnergy(p.cycles), hop, noStage)
	}
}

// wire adds β's hop across the source station's wire port.
func (s *Stages) wire(p *placement, sys *mecnet.System, after int8) int8 {
	beta := p.t.ExternalSize
	return s.add(StWire, p.srcDev.Station, sys.StationWire.TransferTime(beta), sys.StationWire.TransferEnergy(beta), after, noStage)
}

// localAndDownload adds device i's upload of α as the local-upload
// branch, then the result's download to device i, which waits for the
// computation the caller adds after it but is summed before it.
func (s *Stages) localAndDownload(p *placement) (local, down int8) {
	alpha, link := p.t.LocalSize, &p.dev.Link
	local = s.add(DevUp, p.home, link.UploadTime(alpha), link.UploadEnergy(alpha), noStage, noStage)
	s.Local = 1
	down = s.add(DevDown, p.home, link.DownloadTime(p.result), link.DownloadEnergy(p.result), noStage, noStage)
	return local, down
}

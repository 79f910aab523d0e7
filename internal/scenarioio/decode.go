package scenarioio

import (
	"fmt"
	"io"
	"math"

	"dsmec/internal/backhaul"
	"dsmec/internal/compute"
	"dsmec/internal/datamap"
	"dsmec/internal/mecnet"
	"dsmec/internal/sim"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// The schema's keys, one table per object; the constants index them.

const (
	docVersion = iota
	docSystem
	docCost
	docTasks
	docPlacement
	docFaults
)

var docFields = []string{
	docVersion: "version", docSystem: "system", docCost: "cost_model",
	docTasks: "tasks", docPlacement: "placement", docFaults: "faults",
}

const (
	sysDevices = iota
	sysStations
	sysCloud
	sysWires
)

var systemFields = []string{
	sysDevices: "devices", sysStations: "stations", sysCloud: "cloud_ghz", sysWires: "wires",
}

const (
	devStation = iota
	devUpload
	devDownload
	devTx
	devRx
	devTech
	devFreq
	devKappa
	devCap
)

var deviceFields = []string{
	devStation: "station", devUpload: "upload_mbps", devDownload: "download_mbps",
	devTx: "tx_power_w", devRx: "rx_power_w", devTech: "tech", devFreq: "freq_ghz",
	devKappa: "kappa", devCap: "resource_cap",
}

const (
	stFreq = iota
	stCap
)

var stationFields = []string{stFreq: "freq_ghz", stCap: "resource_cap"}

const (
	wireStLatency = iota
	wireStBps
	wireStJ
	wireCloudLatency
	wireCloudBps
	wireCloudJ
)

var wiresFields = []string{
	wireStLatency: "station_latency_s", wireStBps: "station_bandwidth_bps",
	wireStJ: "station_joule_per_byte", wireCloudLatency: "cloud_latency_s",
	wireCloudBps: "cloud_bandwidth_bps", wireCloudJ: "cloud_joule_per_byte",
}

const (
	costLambda = iota
	costKind
	costValue
)

var costFields = []string{
	costLambda: "cycles_per_byte", costKind: "result_kind", costValue: "result_value",
}

const (
	taskUser = iota
	taskIndex
	taskKind
	taskOp
	taskLocal
	taskExternal
	taskSource
	taskResource
	taskDeadline
	taskLocalBlocks
	taskExternalBlocks
)

var taskFields = []string{
	taskUser: "user", taskIndex: "index", taskKind: "kind", taskOp: "op_bytes",
	taskLocal: "local_bytes", taskExternal: "external_bytes",
	taskSource: "external_source", taskResource: "resource", taskDeadline: "deadline_s",
	taskLocalBlocks: "local_blocks", taskExternalBlocks: "external_blocks",
}

const (
	plBlocks = iota
	plBlockBytes
	plHoldings
)

var placementFields = []string{plBlocks: "num_blocks", plBlockBytes: "block_bytes", plHoldings: "holdings"}

const (
	fOutages = iota
	fDepartures
	fDegradations
	fTimeout
	fRecovery
)

var faultsFields = []string{
	fOutages: "station_outages", fDepartures: "device_departures",
	fDegradations: "link_degradations", fTimeout: "transfer_timeout_s", fRecovery: "recovery",
}

var (
	outageFields      = []string{"station", "at_s", "repair_s"}
	departureFields   = []string{"device", "at_s"}
	degradationFields = []string{"station", "link", "at_s", "duration_s", "slowdown"}
	recoveryFields    = []string{"max_retries", "backoff_base_s", "backoff_cap_s", "no_reassign"}
)

// costSpec is the decoded cost_model object.
type costSpec struct {
	cyclesPerByte float64
	resultKind    string
	resultValue   float64
}

// placementSpec is the decoded placement object; it is built into a
// datamap.Placement once the device count is known.
type placementSpec struct {
	numBlocks  int
	blockBytes int64
	holdings   [][]int
}

// decoder fills a scenario straight from the scanner: devices and
// stations into the system, tasks into the set's arena.
type decoder struct {
	s         *scanner
	sys       *mecnet.System
	cost      costSpec
	tasks     *task.Set
	placement *placementSpec
	faults    *sim.FaultPlan
	// faultErr is a fault-plan error only DecodeWithFaults reports: plain
	// Decode ignores the plan.
	faultErr error
}

// decode reads one scenario document; the fault plan is nil when the
// document has none. Only withFaults reports fault-plan errors.
func decode(r io.Reader, withFaults bool) (*workload.Scenario, *sim.FaultPlan, error) {
	d := &decoder{s: newScanner(r), tasks: &task.Set{}}
	s := d.s
	versionSeen := false
	err := s.object(docFields, func(k int) error {
		switch k {
		case docVersion:
			v, err := s.int()
			if err == nil && v != FormatVersion {
				err = s.errorf("unsupported version %d (want %d)", v, FormatVersion)
			}
			versionSeen = err == nil
			return err
		case docSystem:
			return d.system()
		case docCost:
			return d.costModel()
		case docTasks:
			return d.taskArray()
		case docPlacement:
			return d.placementObject()
		default:
			return d.faultPlan()
		}
	})
	if err == nil && !s.atEnd() {
		err = s.unexpected("end of input")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("scenarioio: %w", err)
	}
	if !versionSeen {
		return nil, nil, fmt.Errorf("scenarioio: unsupported version 0 (want %d)", FormatVersion)
	}
	if d.sys == nil {
		return nil, nil, fmt.Errorf("scenarioio: document has no system")
	}
	sc, err := assemble(d.sys, &d.cost, d.tasks, d.placement)
	if err != nil {
		return nil, nil, err
	}
	if withFaults && d.faultErr != nil {
		return nil, nil, d.faultErr
	}
	return sc, d.faults, nil
}

// scaled reads a number given in unit steps (GHz, Mbit/s) into base
// units. It rejects a number whose scaling overflows to ±Inf: such a
// scenario could not be written back.
func scaled[T ~float64](s *scanner, unit T) (T, error) {
	v, err := s.float()
	x := T(v) * unit
	if err == nil && math.IsInf(float64(x), 0) {
		err = s.errorf("%v overflows in base units", v)
	}
	return x, err
}

func (d *decoder) system() error {
	s := d.s
	sys := &mecnet.System{}
	err := s.object(systemFields, func(k int) error {
		switch k {
		case sysDevices:
			return s.elements("device", func(int) error {
				sys.Devices = append(sys.Devices, mecnet.Device{})
				return d.device(&sys.Devices[len(sys.Devices)-1])
			})
		case sysStations:
			return s.elements("station", func(int) error {
				sys.Stations = append(sys.Stations, mecnet.Station{})
				return d.station(&sys.Stations[len(sys.Stations)-1])
			})
		case sysCloud:
			f, err := scaled(s, units.Gigahertz)
			sys.Cloud = mecnet.Cloud{Proc: compute.Processor{Frequency: f}}
			return err
		default:
			return d.wires(sys)
		}
	})
	d.sys = sys
	return err
}

func (d *decoder) device(dev *mecnet.Device) error {
	s := d.s
	dev.Link.Tech = techFromString("")
	return s.object(deviceFields, func(k int) (err error) {
		var v float64
		switch k {
		case devStation:
			dev.Station, err = s.int()
		case devUpload:
			dev.Link.Upload, err = scaled(s, units.MbitPerSecond)
		case devDownload:
			dev.Link.Download, err = scaled(s, units.MbitPerSecond)
		case devTx:
			v, err = s.float()
			dev.Link.TxPower = units.Power(v)
		case devRx:
			v, err = s.float()
			dev.Link.RxPower = units.Power(v)
		case devTech:
			var tech []byte
			tech, err = s.str()
			dev.Link.Tech = techFromString(string(tech))
		case devFreq:
			dev.Proc.Frequency, err = scaled(s, units.Gigahertz)
		case devKappa:
			dev.Proc.Kappa, err = s.float()
		default:
			dev.ResourceCap, err = s.float()
		}
		return err
	})
}

func (d *decoder) station(st *mecnet.Station) error {
	s := d.s
	return s.object(stationFields, func(k int) (err error) {
		if k == stFreq {
			st.Proc.Frequency, err = scaled(s, units.Gigahertz)
		} else {
			st.ResourceCap, err = s.float()
		}
		return err
	})
}

func (d *decoder) wires(sys *mecnet.System) error {
	s := d.s
	var w [6]float64
	err := s.object(wiresFields, func(k int) (err error) {
		w[k], err = s.float()
		return err
	})
	sys.StationWire = backhaul.Wire{
		Latency:       units.Duration(w[wireStLatency]),
		Bandwidth:     units.BitRate(w[wireStBps]),
		EnergyPerByte: units.Energy(w[wireStJ]),
	}
	sys.CloudWire = backhaul.Wire{
		Latency:       units.Duration(w[wireCloudLatency]),
		Bandwidth:     units.BitRate(w[wireCloudBps]),
		EnergyPerByte: units.Energy(w[wireCloudJ]),
	}
	return err
}

func (d *decoder) costModel() error {
	s := d.s
	return s.object(costFields, func(k int) (err error) {
		switch k {
		case costLambda:
			d.cost.cyclesPerByte, err = s.float()
		case costKind:
			var kind []byte
			kind, err = s.str()
			d.cost.resultKind = string(kind)
		default:
			d.cost.resultValue, err = s.float()
		}
		return err
	})
}

// taskArray streams the task array into the set's arena, one element at
// a time through a single reused task value.
func (d *decoder) taskArray() error {
	s := d.s
	var t task.Task
	return s.elements("task", func(int) error {
		t = task.Task{Kind: kindFromString(""), ExternalSource: task.NoExternalSource}
		if err := d.task(&t); err != nil {
			return err
		}
		if err := d.tasks.Add(&t); err != nil {
			return s.errorf("%v", err)
		}
		return nil
	})
}

func (d *decoder) task(t *task.Task) error {
	s := d.s
	return s.object(taskFields, func(k int) (err error) {
		switch k {
		case taskUser:
			t.ID.User, err = s.int()
		case taskIndex:
			t.ID.Index, err = s.int()
		case taskKind:
			var kind []byte
			kind, err = s.str()
			t.Kind = kindFromString(string(kind))
		case taskOp:
			t.OpSize, err = d.size()
		case taskLocal:
			t.LocalSize, err = d.size()
		case taskExternal:
			t.ExternalSize, err = d.size()
		case taskSource:
			var null bool
			if null, err = s.null(); !null && err == nil {
				t.ExternalSource, err = s.int()
			}
		case taskResource:
			t.Resource, err = s.float()
		case taskDeadline:
			var v float64
			v, err = s.float()
			t.Deadline = units.Duration(v)
		case taskLocalBlocks:
			t.LocalBlocks, err = d.blockSet()
		default:
			t.ExternalBlocks, err = d.blockSet()
		}
		return err
	})
}

func (d *decoder) size() (units.ByteSize, error) {
	n, err := d.s.integer(64)
	return units.ByteSize(n), err
}

// blockSet reads a block list; an empty or null list is a nil set.
func (d *decoder) blockSet() (*datamap.Set, error) {
	var set *datamap.Set
	err := d.s.ints(func(b int) {
		if set == nil {
			set = datamap.NewSet()
		}
		set.Add(datamap.BlockID(b))
	})
	return set, err
}

func (d *decoder) placementObject() error {
	s := d.s
	if null, err := s.null(); null || err != nil {
		return err
	}
	p := &placementSpec{}
	d.placement = p
	return s.object(placementFields, func(k int) (err error) {
		switch k {
		case plBlocks:
			p.numBlocks, err = s.int()
		case plBlockBytes:
			p.blockBytes, err = s.integer(64)
		default:
			err = s.elements("holding", func(int) error {
				var row []int
				err := s.ints(func(b int) { row = append(row, b) })
				p.holdings = append(p.holdings, row)
				return err
			})
		}
		return err
	})
}

func (d *decoder) faultPlan() error {
	s := d.s
	if null, err := s.null(); null || err != nil {
		return err
	}
	fp := &sim.FaultPlan{}
	d.faults = fp
	return s.object(faultsFields, func(k int) (err error) {
		switch k {
		case fOutages:
			return s.elements("station outage", func(int) error {
				var o sim.StationOutage
				var at [2]float64 // at_s, repair_s
				err := d.event(outageFields, &o.Station, at[:])
				o.At, o.Repair = units.Duration(at[0]), units.Duration(at[1])
				fp.StationOutages = append(fp.StationOutages, o)
				return err
			})
		case fDepartures:
			return s.elements("device departure", func(int) error {
				var dep sim.DeviceDeparture
				var at [1]float64 // at_s
				err := d.event(departureFields, &dep.Device, at[:])
				dep.At = units.Duration(at[0])
				fp.DeviceDepartures = append(fp.DeviceDepartures, dep)
				return err
			})
		case fDegradations:
			return s.elements("link degradation", func(i int) error {
				g, err := d.degradation(i)
				fp.LinkDegradations = append(fp.LinkDegradations, g)
				return err
			})
		case fTimeout:
			var v float64
			v, err = s.float()
			fp.TransferTimeout = units.Duration(v)
		default:
			err = d.recovery(&fp.Recovery)
		}
		return err
	})
}

// event reads a fault event object whose fields are an int id followed
// by float seconds, in fields order.
func (d *decoder) event(fields []string, id *int, secs []float64) error {
	s := d.s
	return s.object(fields, func(k int) (err error) {
		if k == 0 {
			*id, err = s.int()
		} else {
			secs[k-1], err = s.float()
		}
		return err
	})
}

// degradation reads link degradation i. An unknown link name is kept as
// a fault-plan error, which plain Decode ignores.
func (d *decoder) degradation(i int) (sim.LinkDegradation, error) {
	s := d.s
	var g sim.LinkDegradation
	var f [3]float64 // at_s, duration_s, slowdown
	err := s.object(degradationFields, func(k int) (err error) {
		switch k {
		case 0:
			g.Station, err = s.int()
		case 1:
			var link []byte
			if link, err = s.str(); err == nil {
				g.Link = linkFromString(string(link))
				if g.Link == 0 && d.faultErr == nil {
					d.faultErr = fmt.Errorf("scenarioio: link degradation %d: link: unknown link %q at byte %d",
						i, link, s.offset())
				}
			}
		default:
			f[k-2], err = s.float()
		}
		return err
	})
	g.At, g.Duration, g.Slowdown = units.Duration(f[0]), units.Duration(f[1]), f[2]
	return g, err
}

func (d *decoder) recovery(r *sim.RecoveryPolicy) error {
	s := d.s
	if null, err := s.null(); null || err != nil {
		return err
	}
	return s.object(recoveryFields, func(k int) (err error) {
		var v float64
		switch k {
		case 0:
			r.MaxRetries, err = s.int()
		case 1:
			v, err = s.float()
			r.BackoffBase = units.Duration(v)
		case 2:
			v, err = s.float()
			r.BackoffCap = units.Duration(v)
		default:
			r.NoReassign, err = s.bool()
		}
		return err
	})
}

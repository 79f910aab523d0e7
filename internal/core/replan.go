package core

import (
	"fmt"

	"dsmec/internal/costmodel"
	"dsmec/internal/task"
)

// Survivors describes which parts of the topology are still alive at
// replan time. The zero value treats everything as dead; use AllAlive for
// the fault-free view. Function fields (rather than slices) let the caller
// answer from whatever degraded-state bookkeeping it already maintains.
type Survivors struct {
	// DeviceUp reports whether device i is still present (has not
	// churned away).
	DeviceUp func(i int) bool
	// StationUp reports whether station s (its CPU, wire, and WAN
	// ports) is currently serving.
	StationUp func(s int) bool
	// CloudUp reports whether the cloud is reachable at all. Note that
	// reaching it still requires the home station's WAN port, so a task
	// behind a dead station cannot run on the cloud even when CloudUp.
	CloudUp bool
}

// AllAlive is the fault-free view: every device, station, and the cloud
// answer as up.
func AllAlive() Survivors {
	return Survivors{
		DeviceUp:  func(int) bool { return true },
		StationUp: func(int) bool { return true },
		CloudUp:   true,
	}
}

func (sv Survivors) deviceUp(i int) bool  { return sv.DeviceUp != nil && sv.DeviceUp(i) }
func (sv Survivors) stationUp(s int) bool { return sv.StationUp != nil && sv.StationUp(s) }

// ReplanOnSurvivors re-runs the Section II cost model for one orphaned
// task against the degraded topology and picks the subsystem it should be
// reassigned to: the minimum-energy choice among the surviving subsystems
// that still meets the task's deadline, falling back to the minimum-energy
// surviving choice when none is deadline-feasible (a late result still
// beats a lost task). It returns SubsystemNone when no subsystem survives
// for this task: the home device is gone (nobody to deliver the result
// to), the external data source is gone (the input no longer exists), or
// every execution path is down.
//
// The choice deliberately skips the LP: a single orphaned task does not
// shift the cluster-level resource constraints enough to re-run LP-HTA
// mid-simulation, and the per-task argmin is exactly what the LP
// relaxation degenerates to for a single free task.
func ReplanOnSurvivors(m *costmodel.Model, t *task.Task, sv Survivors) (costmodel.Subsystem, error) {
	sys := m.System()
	dev, err := sys.Device(t.ID.User)
	if err != nil {
		return costmodel.SubsystemNone, fmt.Errorf("core: replan %v: %w", t.ID, err)
	}
	// The home device must survive in every case: it raises the task,
	// holds LD_ij, and receives the result.
	if !sv.deviceUp(t.ID.User) {
		return costmodel.SubsystemNone, nil
	}
	// External data lives on L_ij; if that device churned away the input
	// cannot be reassembled anywhere.
	if t.HasExternal() {
		if !sv.deviceUp(t.ExternalSource) {
			return costmodel.SubsystemNone, nil
		}
		src, err := sys.Device(t.ExternalSource)
		if err != nil {
			return costmodel.SubsystemNone, fmt.Errorf("core: replan %v: %w", t.ID, err)
		}
		// Cross-cluster retrieval makes one wire hop, which Eval and the
		// DES both charge to the source station's wire port.
		if src.Station != dev.Station && !sv.stationUp(src.Station) {
			return costmodel.SubsystemNone, nil
		}
	}

	opts, err := m.Eval(t)
	if err != nil {
		return costmodel.SubsystemNone, fmt.Errorf("core: replan %v: %w", t.ID, err)
	}
	homeUp := sv.stationUp(dev.Station)
	alive := func(l costmodel.Subsystem) bool {
		switch l {
		case costmodel.SubsystemDevice:
			// Retrieval crosses the *source* station's wire on
			// cross-cluster paths, which was already checked above;
			// same-cluster paths never touch the backhaul.
			return true
		case costmodel.SubsystemStation:
			return homeUp
		case costmodel.SubsystemCloud:
			// The WAN crossing uses the home station's port.
			return sv.CloudUp && homeUp
		default:
			return false
		}
	}

	best := costmodel.SubsystemNone
	bestFeasible := false
	for _, l := range costmodel.Subsystems {
		if !alive(l) {
			continue
		}
		c := opts.At(l)
		if !c.Time.IsFinite() {
			continue
		}
		feasible := c.Time <= t.Deadline
		switch {
		case best == costmodel.SubsystemNone,
			feasible && !bestFeasible,
			feasible == bestFeasible && c.Energy < opts.At(best).Energy:
			best = l
			bestFeasible = feasible
		}
	}
	return best, nil
}

package costmodel

import (
	"fmt"

	"dsmec/internal/compute"
	"dsmec/internal/mecnet"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

// Subsystem identifies where a task runs: the paper's index l.
type Subsystem int

// The three subsystems of the paper, plus SubsystemNone for cancelled
// tasks.
const (
	SubsystemNone    Subsystem = 0
	SubsystemDevice  Subsystem = 1
	SubsystemStation Subsystem = 2
	SubsystemCloud   Subsystem = 3
)

// Subsystems lists the three placement choices in index order.
var Subsystems = [3]Subsystem{SubsystemDevice, SubsystemStation, SubsystemCloud}

// String names the subsystem.
func (s Subsystem) String() string {
	switch s {
	case SubsystemNone:
		return "none"
	case SubsystemDevice:
		return "device"
	case SubsystemStation:
		return "station"
	case SubsystemCloud:
		return "cloud"
	default:
		return fmt.Sprintf("Subsystem(%d)", int(s))
	}
}

// Cost is the delay and energy of one placement choice.
type Cost struct {
	Time   units.Duration // t_ijl
	Energy units.Energy   // E_ijl
}

// Options holds the cost of every subsystem choice for one task, indexed
// by Subsystem (index 0 unused).
type Options struct {
	ByLevel [4]Cost
}

// At returns the cost of running the task on subsystem l.
func (o Options) At(l Subsystem) Cost { return o.ByLevel[l] }

// Model evaluates the Section II formulas against a concrete system.
type Model struct {
	sys    *mecnet.System
	cycles compute.CycleModel
	result compute.ResultModel
}

// New builds a cost model. cycles is λ (CPU cycles per input size), result
// is η (result size per input size); nil values default to the paper's
// evaluation models (λ = 330 cycles/byte, η = 0.2).
func New(sys *mecnet.System, cycles compute.CycleModel, result compute.ResultModel) (*Model, error) {
	if sys == nil {
		return nil, fmt.Errorf("costmodel: nil system")
	}
	if cycles == nil {
		cycles = compute.DefaultCycles()
	}
	if result == nil {
		result = compute.DefaultResult()
	}
	return &Model{sys: sys, cycles: cycles, result: result}, nil
}

// System returns the topology the model evaluates against.
func (m *Model) System() *mecnet.System { return m.sys }

// ResultSize returns η(size), the output size for the given input size.
func (m *Model) ResultSize(size units.ByteSize) units.ByteSize {
	return m.result.ResultSize(size)
}

// Cycles returns λ(size), the cycle demand for the given input size.
func (m *Model) Cycles(size units.ByteSize) units.Cycles {
	return m.cycles.Cycles(size)
}

// Eval returns the cost of every placement choice for t.
func (m *Model) Eval(t *task.Task) (Options, error) {
	p, err := m.place(t)
	if err != nil {
		return Options{}, err
	}
	var opts Options
	var s Stages
	for _, l := range Subsystems {
		m.stages(&s, &p, l)
		opts.ByLevel[l] = s.Cost()
	}
	return opts, nil
}

// Stages returns the stage list of running t on subsystem l.
func (m *Model) Stages(t *task.Task, l Subsystem) (Stages, error) {
	p, err := m.place(t)
	if err != nil {
		return Stages{}, err
	}
	var s Stages
	m.stages(&s, &p, l)
	if s.N == 0 {
		return Stages{}, fmt.Errorf("costmodel: task %v: invalid subsystem %d", t.ID, int(l))
	}
	return s, nil
}

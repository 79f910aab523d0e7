package perfbench

import (
	"bytes"

	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/rng"
	"dsmec/internal/scenarioio"
	"dsmec/internal/task"
	"dsmec/internal/workload"
)

// HolisticScenario generates the seeded scenario the LPHTA and simulator
// benchmarks run against.
func HolisticScenario(tasks int) (*workload.Scenario, error) {
	return workload.GenerateHolistic(rng.NewSource(1), workload.Params{NumTasks: tasks})
}

// ScaledScenario generates a seeded scenario with an explicit topology,
// for large-scale benchmarks where the station count (and with it the
// LP-HTA cluster size) must grow with the task population.
func ScaledScenario(devices, stations, tasks int) (*workload.Scenario, error) {
	return workload.GenerateHolistic(rng.NewSource(1), workload.Params{
		NumDevices: devices, NumStations: stations, NumTasks: tasks,
	})
}

// ScenarioDocument renders the seeded holistic scenario to its JSON
// document form, the input of the scenario_decode benchmark.
func ScenarioDocument(tasks int) ([]byte, error) {
	sc, err := HolisticScenario(tasks)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := scenarioio.Encode(&buf, sc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Assign runs LP-HTA once to produce an assignment for simulator
// benchmarks.
func Assign(m *costmodel.Model, ts *task.Set) (*core.Assignment, error) {
	res, err := core.LPHTA(m, ts, nil)
	if err != nil {
		return nil, err
	}
	return res.Assignment, nil
}

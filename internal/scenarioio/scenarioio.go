package scenarioio

import (
	"fmt"
	"io"

	"dsmec/internal/compute"
	"dsmec/internal/costmodel"
	"dsmec/internal/datamap"
	"dsmec/internal/mecnet"
	"dsmec/internal/radio"
	"dsmec/internal/sim"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// FormatVersion identifies the document schema.
const FormatVersion = 1

// Encode writes the scenario as indented JSON, streaming devices, tasks
// and placement rows one element at a time (the document is never
// materialized in memory). The cost model's λ and η are taken from params
// (workload defaults) because costmodel hides them; pass the scenario
// produced by the workload generator.
func Encode(w io.Writer, sc *workload.Scenario) error {
	return encode(w, sc, nil)
}

// Decode reads a scenario document and rebuilds a fully validated
// scenario, streaming the task array into the set's arena instead of
// materializing the whole document. Any fault plan in the document is
// ignored; use DecodeWithFaults to get it.
func Decode(r io.Reader) (*workload.Scenario, error) {
	sc, _, err := decode(r, false)
	return sc, err
}

// resultModelSpec names a result model η for the cost_model object.
func resultModelSpec(rm compute.ResultModel) (kind string, value float64, err error) {
	switch rm := rm.(type) {
	case compute.ProportionalResult:
		return "proportional", rm.Ratio, nil
	case compute.ConstantResult:
		return "constant", float64(rm.Size), nil
	case nil:
		return "proportional", compute.DefaultEta, nil
	default:
		return "", 0, fmt.Errorf("scenarioio: unsupported result model %T", rm)
	}
}

func resultModelFromSpec(c *costSpec) (compute.ResultModel, error) {
	switch c.resultKind {
	case "proportional":
		return compute.ProportionalResult{Ratio: c.resultValue}, nil
	case "constant":
		return compute.ConstantResult{Size: units.ByteSize(c.resultValue)}, nil
	default:
		return nil, fmt.Errorf("scenarioio: unknown result kind %q", c.resultKind)
	}
}

// assemble validates the decoded pieces and builds the scenario.
func assemble(sys *mecnet.System, cost *costSpec, ts *task.Set, ps *placementSpec) (*workload.Scenario, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("scenarioio: %w", err)
	}
	resultModel, err := resultModelFromSpec(cost)
	if err != nil {
		return nil, err
	}
	model, err := costmodel.New(sys, compute.LinearCycles{PerByte: cost.cyclesPerByte}, resultModel)
	if err != nil {
		return nil, fmt.Errorf("scenarioio: %w", err)
	}

	var placement *datamap.Placement
	if ps != nil {
		if len(ps.holdings) != len(sys.Devices) {
			return nil, fmt.Errorf("scenarioio: %d holdings for %d devices",
				len(ps.holdings), len(sys.Devices))
		}
		placement, err = datamap.NewPlacement(len(sys.Devices), ps.numBlocks,
			units.ByteSize(ps.blockBytes))
		if err != nil {
			return nil, fmt.Errorf("scenarioio: %w", err)
		}
		for dev, row := range ps.holdings {
			for _, b := range row {
				if err := placement.Assign(dev, datamap.BlockID(b)); err != nil {
					return nil, fmt.Errorf("scenarioio: %w", err)
				}
			}
		}
	}

	return &workload.Scenario{
		System:    sys,
		Model:     model,
		Tasks:     ts,
		Placement: placement,
		Params:    workload.Params{ResultModel: resultModel},
	}, nil
}

func techFromString(s string) radio.Tech {
	switch s {
	case "4G":
		return radio.Tech4G
	case "Wi-Fi":
		return radio.TechWiFi
	default:
		return radio.TechCustom
	}
}

func kindFromString(s string) task.Kind {
	switch s {
	case "divisible":
		return task.Divisible
	default:
		return task.Holistic
	}
}

// linkFromString returns 0, no link, for an unknown name.
func linkFromString(s string) sim.Link {
	switch s {
	case "wire":
		return sim.LinkWire
	case "wan":
		return sim.LinkWAN
	default:
		return 0
	}
}

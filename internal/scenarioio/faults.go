package scenarioio

import (
	"io"

	"dsmec/internal/sim"
	"dsmec/internal/workload"
)

// EncodeWithFaults writes the scenario together with a fault plan (nil
// writes a plain scenario, identical to Encode), so a workload and the
// faults it should survive travel as one artifact. Like Encode, the
// document is streamed, never materialized whole.
func EncodeWithFaults(w io.Writer, sc *workload.Scenario, fp *sim.FaultPlan) error {
	return encode(w, sc, fp)
}

// DecodeWithFaults reads a scenario document and the fault plan embedded
// in it, if any. The plan is validated against the decoded topology.
func DecodeWithFaults(r io.Reader) (*workload.Scenario, *sim.FaultPlan, error) {
	sc, fp, err := decode(r, true)
	if err != nil {
		return nil, nil, err
	}
	if err := fp.Validate(sc.System); err != nil {
		return nil, nil, err
	}
	return sc, fp, nil
}

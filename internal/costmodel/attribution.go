package costmodel

import (
	"sort"

	"dsmec/internal/task"
	"dsmec/internal/units"
)

// Infrastructure is the Attribution key for energy drawn from the grid —
// base-station wires and the WAN — rather than from any device battery.
const Infrastructure = -1

// Attribution splits E_ijl by who pays it: device indices map to battery
// energy (radio plus computation), Infrastructure collects the wired
// backhaul shares. The values sum to the corresponding Options energy.
type Attribution map[int]units.Energy

// Battery returns the battery share of device i.
func (a Attribution) Battery(i int) units.Energy { return a[i] }

// Total returns the sum over all payers. Summation runs in sorted key
// order: float addition is order-dependent in the last bits, and map
// order would make the total differ between otherwise identical runs.
func (a Attribution) Total() units.Energy {
	keys := make([]int, 0, len(a))
	for who := range a {
		keys = append(keys, who)
	}
	sort.Ints(keys)
	var sum units.Energy
	for _, who := range keys {
		sum += a[who]
	}
	return sum
}

// Attribute computes who pays the energy of running t on subsystem l:
// each stage bills its energy to its payer (Section II):
//
//   - the source device L_ij pays e_L^(T)(β) whenever external data moves,
//   - the owning device i pays its uploads, downloads and (for l = 1) the
//     computation energy κλ(α+β)f²,
//   - the station↔station and station↔cloud wires, and the station and
//     cloud CPUs, bill Infrastructure.
func (m *Model) Attribute(t *task.Task, l Subsystem) (Attribution, error) {
	s, err := m.Stages(t, l)
	if err != nil {
		return nil, err
	}
	out := Attribution{}
	for i := range s.N {
		if st := &s.List[i]; st.Energy != 0 {
			out[int(st.Payer)] += st.Energy
		}
	}
	return out, nil
}

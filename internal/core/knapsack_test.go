package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"dsmec/internal/costmodel"
	"dsmec/internal/obs"
	"dsmec/internal/rng"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// Theorem 1 of the paper proves HTA NP-complete by reducing 0/1 knapsack
// to the clusters with max_i = 0 and T_ij = ∞: with the devices closed,
// keeping task j on the station instead of the cloud saves
// max(0, E_ij3 − E_ij2) for C_ij of max_S. The knapsack solvers below are
// the oracles for that reduction.

type knapsackItem struct {
	value  float64
	weight int
}

// knapsackDP is the 0/1 knapsack optimum by dynamic programming over
// integer weights, O(n·capacity).
func knapsackDP(items []knapsackItem, capacity int) float64 {
	best := make([]float64, capacity+1)
	for _, it := range items {
		for w := capacity; w >= it.weight; w-- {
			if v := best[w-it.weight] + it.value; v > best[w] {
				best[w] = v
			}
		}
	}
	return best[capacity]
}

// knapsackBruteForce enumerates all 2^n subsets.
func knapsackBruteForce(items []knapsackItem, capacity int) float64 {
	best := 0.0
	for mask := 0; mask < 1<<len(items); mask++ {
		v, w := 0.0, 0
		for i, it := range items {
			if mask&(1<<i) != 0 {
				v += it.value
				w += it.weight
			}
		}
		if w <= capacity && v > best {
			best = v
		}
	}
	return best
}

// dantzigBound is the fractional knapsack optimum (Dantzig, 1957): items
// by value per unit weight, best first, the last one split. Every weight
// must be positive.
func dantzigBound(items []knapsackItem, capacity int) float64 {
	byDensity := slices.Clone(items)
	slices.SortStableFunc(byDensity, func(a, b knapsackItem) int {
		return cmp.Compare(b.value/float64(b.weight), a.value/float64(a.weight))
	})
	value, room := 0.0, float64(capacity)
	for _, it := range byDensity {
		if it.value <= 0 || room <= 0 {
			break
		}
		take := math.Min(1, room/float64(it.weight))
		value += take * it.value
		room -= take * float64(it.weight)
	}
	return value
}

func TestKnapsackDPKnownInstances(t *testing.T) {
	tests := []struct {
		name     string
		items    []knapsackItem
		capacity int
		want     float64
	}{
		{"empty", nil, 10, 0},
		{"zero capacity", []knapsackItem{{5, 1}}, 0, 0},
		{"single fits", []knapsackItem{{5, 3}}, 3, 5},
		{"single too heavy", []knapsackItem{{5, 4}}, 3, 0},
		{"classic", []knapsackItem{{60, 10}, {100, 20}, {120, 30}}, 50, 220},
		// Density greedy takes the 1-weight item and misses the pair.
		{"greedy trap", []knapsackItem{{10, 1}, {9, 5}, {9, 5}}, 10, 19},
		{"zero weight item", []knapsackItem{{3, 0}, {4, 2}}, 2, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := knapsackDP(tt.items, tt.capacity); got != tt.want {
				t.Errorf("DP = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestKnapsackDPMatchesBruteForce(t *testing.T) {
	r := rng.NewSource(42).Stream("knap")
	for trial := 0; trial < 200; trial++ {
		items := make([]knapsackItem, rng.UniformInt(r, 1, 12))
		for i := range items {
			items[i] = knapsackItem{
				value:  float64(rng.UniformInt(r, 0, 100)),
				weight: rng.UniformInt(r, 0, 15),
			}
		}
		capacity := rng.UniformInt(r, 0, 40)
		if dp, bf := knapsackDP(items, capacity), knapsackBruteForce(items, capacity); dp != bf {
			t.Fatalf("trial %d: DP %g, brute force %g (items %v, cap %d)", trial, dp, bf, items, capacity)
		}
	}
}

// TestTheorem1KnapsackReduction builds Theorem 1's clusters (max_i = 0,
// T_ij = ∞, integer C_ij ≥ 1 and max_S) and checks both exact solvers
// against knapsack: OptimalHTA's energy is Σ E_ij3 minus the 0/1 optimum
// over the items (max(0, E_ij3 − E_ij2), C_ij), within the search's gap,
// and P2's optimum is Σ E_ij3 minus Dantzig's fractional bound.
func TestTheorem1KnapsackReduction(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rng.NewSource(seed).Stream("theorem1")
		stations := rng.UniformInt(r, 1, 2)
		sc, err := workload.GenerateHolistic(rng.NewSource(seed), workload.Params{
			NumDevices: 3 * stations, NumStations: stations, NumTasks: rng.UniformInt(r, 4, 24),
		})
		if err != nil {
			t.Fatal(err)
		}
		sys := sc.Model.System()
		for d := range sys.Devices {
			sys.Devices[d].ResourceCap = 0
		}
		capS := make([]int, stations)
		for s := range capS {
			capS[s] = rng.UniformInt(r, 0, 20)
			sys.Stations[s].ResourceCap = float64(capS[s])
		}
		for i := 0; i < sc.Tasks.Len(); i++ {
			tk := sc.Tasks.At(i)
			tk.Resource = float64(rng.UniformInt(r, 1, 6))
			tk.Deadline = units.Forever
		}

		opt, err := OptimalHTA(sc.Model, sc.Tasks)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		optM, err := Evaluate(sc.Model, sc.Tasks, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for st, cts := range clusterTasks(t, sc.Model, sc.Tasks) {
			if len(cts) == 0 {
				continue
			}
			cloud := 0.0
			items := make([]knapsackItem, len(cts))
			for i, ct := range cts {
				e2 := float64(ct.opts.At(costmodel.SubsystemStation).Energy)
				e3 := float64(ct.opts.At(costmodel.SubsystemCloud).Energy)
				cloud += e3
				items[i] = knapsackItem{value: math.Max(0, e3-e2), weight: int(ct.t.Resource)}
			}
			want += cloud - knapsackDP(items, capS[st])

			var scr clusterScratch
			sol, err := scr.solveClusterLP(sys, st, cts, obs.Instruments{})
			if err != nil {
				t.Fatalf("seed %d station %d: %v", seed, st, err)
			}
			if lp := cloud - dantzigBound(items, capS[st]); !relClose(sol.obj, lp) {
				t.Errorf("seed %d station %d: P2 optimum %.17g, Σ E3 − Dantzig bound %.17g", seed, st, sol.obj, lp)
			}
		}
		if got := float64(optM.TotalEnergy); got < want-1e-9*want || got > want+optimalGap*want {
			t.Errorf("seed %d: OptimalHTA energy %.17g, Σ E3 − knapsack optimum %.17g", seed, got, want)
		}
	}
}

package baseline

import (
	"errors"
	"fmt"
	"testing"

	"dsmec/internal/core"
	"dsmec/internal/rng"
	"dsmec/internal/workload"
)

// TestILPMatchesBruteForce checks the branch-and-bound optimum against
// exhaustive search on 400 instances of 6–12 tasks on one or two
// clusters, with caps and deadline slack drawn so that many have no full
// placement: both must agree on feasibility and on the optimal energy.
func TestILPMatchesBruteForce(t *testing.T) {
	feasible, overConstrained := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		r := rng.NewSource(seed).Stream("ilp-vs-bf")
		stations := rng.UniformInt(r, 1, 2)
		params := workload.Params{
			NumDevices: stations * rng.UniformInt(r, 2, 3), NumStations: stations,
			NumTasks:  rng.UniformInt(r, 6, 12),
			DeviceCap: rng.Uniform(r, 3, 10), StationCap: rng.Uniform(r, 6, 24),
			DeadlineSlackMin: 1, DeadlineSlackMax: rng.Uniform(r, 1.5, 6),
		}
		sc := holisticScenario(t, seed, params)

		bf, bfErr := BruteForceHTA(sc.Model, sc.Tasks)
		opt, optErr := core.OptimalHTA(sc.Model, sc.Tasks)
		if errors.Is(bfErr, core.ErrNoFeasible) {
			if !errors.Is(optErr, core.ErrNoFeasible) {
				t.Fatalf("seed %d: brute force infeasible but branch-and-bound says %v", seed, optErr)
			}
			overConstrained++
			continue
		}
		if bfErr != nil {
			t.Fatal(bfErr)
		}
		if optErr != nil {
			t.Fatalf("seed %d: branch-and-bound failed: %v", seed, optErr)
		}
		feasible++

		bfM, err := core.Evaluate(sc.Model, sc.Tasks, bf)
		if err != nil {
			t.Fatal(err)
		}
		optM, err := core.Evaluate(sc.Model, sc.Tasks, opt)
		if err != nil {
			t.Fatal(err)
		}
		if optM.Cancelled != 0 {
			t.Fatalf("seed %d: branch-and-bound cancelled %d tasks", seed, optM.Cancelled)
		}
		want, got := float64(bfM.TotalEnergy), float64(optM.TotalEnergy)
		if got < want-1e-6 || got > want+1e-6 {
			t.Fatalf("seed %d: brute force %v, branch-and-bound %v", seed, bfM.TotalEnergy, optM.TotalEnergy)
		}
		if err := core.CheckFeasible(sc.Model, sc.Tasks, opt); err != nil {
			t.Fatalf("seed %d: branch-and-bound solution infeasible: %v", seed, err)
		}
	}
	t.Logf("%d feasible, %d over-constrained", feasible, overConstrained)
	if feasible < 100 || overConstrained < 50 {
		t.Errorf("want both classes well covered, got %d feasible and %d over-constrained", feasible, overConstrained)
	}
}

func TestILPBeyondBruteForceReach(t *testing.T) {
	// 40 tasks across 3 clusters: far beyond 3^40 enumeration, easy for
	// branch-and-bound. The exact optimum must lower-bound LP-HTA.
	sc := holisticScenario(t, 20, workload.Params{
		NumDevices: 12, NumStations: 3, NumTasks: 40,
		DeadlineSlackMin: 1.3, DeadlineSlackMax: 3,
	})
	opt, err := core.OptimalHTA(sc.Model, sc.Tasks)
	if errors.Is(err, core.ErrNoFeasible) {
		t.Skip("instance infeasible without cancellation")
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := core.CheckFeasible(sc.Model, sc.Tasks, opt); err != nil {
		t.Fatal(err)
	}
	optM, err := core.Evaluate(sc.Model, sc.Tasks, opt)
	if err != nil {
		t.Fatal(err)
	}

	lph, err := core.LPHTA(sc.Model, sc.Tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	lphM, err := core.Evaluate(sc.Model, sc.Tasks, lph.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if lphM.Cancelled == 0 && lphM.TotalEnergy < optM.TotalEnergy-1e-9 {
		t.Errorf("LP-HTA %v beats the exact optimum %v", lphM.TotalEnergy, optM.TotalEnergy)
	}
	// And on this loose-deadline instance LP-HTA should be near-optimal.
	if lphM.Cancelled == 0 {
		ratio := float64(lphM.TotalEnergy) / float64(optM.TotalEnergy)
		if ratio > 1.5 {
			t.Errorf("LP-HTA ratio %.3f unexpectedly far from optimal", ratio)
		}
	}
}

// TestILPNodeLimitPropagates runs the ratio experiment's first 48-task
// instance at seed 1, whose proof needs more than the 20,000-node limit:
// the search must stop with ErrNodeLimit, not return an unproven answer.
func TestILPNodeLimitPropagates(t *testing.T) {
	src := rng.NewSource(1).Derive(fmt.Sprintf("ratio-%d-%d", 48, 0))
	sc, err := workload.GenerateHolistic(src, workload.Params{
		NumDevices: 8, NumStations: 2, NumTasks: 48,
		DeviceCap: 8, StationCap: 24,
		DeadlineSlackMin: 2, DeadlineSlackMax: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.OptimalHTA(sc.Model, sc.Tasks); !errors.Is(err, core.ErrNodeLimit) {
		t.Errorf("err = %v, want ErrNodeLimit", err)
	}
}

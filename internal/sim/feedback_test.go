package sim

import (
	"testing"

	"dsmec/internal/core"
	"dsmec/internal/rng"
	"dsmec/internal/workload"
)

func TestPlanWithFeedbackReducesMisses(t *testing.T) {
	// A contended scenario where plain LP-HTA misses many deadlines under
	// queueing; feedback replanning must not be worse, and usually helps.
	sc, err := workload.GenerateHolistic(rng.NewSource(31), workload.Params{
		NumDevices: 20, NumStations: 4, NumTasks: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlanWithFeedback(sc.Model, sc.Tasks, FeedbackOptions{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("expected 4 rounds (1 base + 3 feedback), got %d", len(res.Rounds))
	}
	base := res.Rounds[0]
	best := res.Rounds[res.Best]
	if best.Misses+best.Cancelled > base.Misses+base.Cancelled {
		t.Errorf("feedback made things worse: %d unsatisfied vs base %d",
			best.Misses+best.Cancelled, base.Misses+base.Cancelled)
	}
	t.Logf("base: %d misses, %d cancelled, %v; best (round %d): %d misses, %d cancelled, %v",
		base.Misses, base.Cancelled, base.Energy, res.Best, best.Misses, best.Cancelled, best.Energy)

	// The returned assignment must genuinely reproduce the best round's
	// numbers.
	simRes, err := Run(sc.Model, sc.Tasks, res.Assignment, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.DeadlineViolations != best.Misses {
		t.Errorf("returned assignment has %d misses, best round recorded %d",
			simRes.DeadlineViolations, best.Misses)
	}
}

func TestPlanWithFeedbackUncontended(t *testing.T) {
	// With almost no contention the base plan already wins; feedback must
	// return it unchanged.
	sc, err := workload.GenerateHolistic(rng.NewSource(32), workload.Params{
		NumDevices: 30, NumStations: 5, NumTasks: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlanWithFeedback(sc.Model, sc.Tasks, FeedbackOptions{Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	b0, bb := res.Rounds[0], res.Rounds[res.Best]
	if bb.Misses+bb.Cancelled > b0.Misses+b0.Cancelled {
		t.Error("best round cannot be worse than the base round")
	}
}

func TestPlanWithFeedbackDeterministic(t *testing.T) {
	run := func() *FeedbackResult {
		sc, err := workload.GenerateHolistic(rng.NewSource(33), workload.Params{
			NumDevices: 10, NumStations: 2, NumTasks: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := PlanWithFeedback(sc.Model, sc.Tasks, FeedbackOptions{Rounds: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Best != b.Best || len(a.Rounds) != len(b.Rounds) {
		t.Fatal("feedback nondeterministic")
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Fatalf("round %d differs: %+v vs %+v", i, a.Rounds[i], b.Rounds[i])
		}
	}
}

func TestPlanWithFeedbackRespectsConstraints(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(34), workload.Params{
		NumDevices: 10, NumStations: 2, NumTasks: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlanWithFeedback(sc.Model, sc.Tasks, FeedbackOptions{Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The chosen assignment still satisfies C2-C5 (C1 holds against the
	// *tightened* deadlines, hence also against the real ones for placed
	// tasks planned in round 0; later rounds plan against tighter ones, so
	// real-deadline feasibility still holds).
	if err := core.CheckFeasible(sc.Model, sc.Tasks, res.Assignment); err != nil {
		t.Error(err)
	}
}

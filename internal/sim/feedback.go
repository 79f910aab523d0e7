package sim

import (
	"fmt"

	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/obs"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

// FeedbackOptions tunes PlanWithFeedback.
type FeedbackOptions struct {
	// Rounds is the number of replan iterations after the initial LP-HTA
	// pass. Default 3.
	Rounds int
	// Sim configures the simulator used for the feedback measurements.
	Sim Config
	// LPHTA configures the scheduling stage.
	LPHTA core.LPHTAOptions
	// MaxTightening caps how much a task's planning deadline may shrink
	// relative to its real deadline (default 8: plan as if the deadline
	// were up to 8x tighter).
	MaxTightening float64
	// Obs selects where metrics and trace spans are recorded; the
	// planner and simulator stages inherit it per round.
	Obs obs.Instruments
}

func (o FeedbackOptions) withDefaults() FeedbackOptions {
	if o.Rounds == 0 {
		o.Rounds = 3
	}
	if o.MaxTightening == 0 {
		o.MaxTightening = 8
	}
	return o
}

// RoundStats records one feedback iteration.
type RoundStats struct {
	// Misses is the number of placed tasks finishing after their real
	// deadline in the simulator.
	Misses int
	// Cancelled is the number of tasks the planner gave up on.
	Cancelled int
	// Lost is the number of placed tasks the fault recovery gave up on
	// (always 0 without fault injection).
	Lost int
	// Energy is the analytic total energy of the round's assignment.
	Energy units.Energy
	// MeanLatency is the simulated mean latency.
	MeanLatency units.Duration
}

// FeedbackResult is the outcome of PlanWithFeedback.
type FeedbackResult struct {
	// Assignment is the best assignment found (fewest simulated misses;
	// energy breaks ties).
	Assignment *core.Assignment
	// Best indexes Rounds at the chosen assignment.
	Best int
	// Rounds records every iteration, index 0 being plain LP-HTA.
	Rounds []RoundStats
}

// PlanWithFeedback goes beyond the paper: it closes the loop between the
// closed-form planner and the queueing reality. Plain LP-HTA satisfies
// deadlines against the analytic t_ijl, but under contention the simulated
// completions inflate and many deadlines are missed (see the simcheck
// experiment). Each feedback round measures per-task inflation in the
// simulator and replans with deadlines tightened by that factor, making
// LP-HTA spread load away from contended resources (or cancel tasks it
// cannot protect). The assignment with the fewest unsatisfied tasks
// (simulated misses plus cancellations) wins; energy breaks ties.
func PlanWithFeedback(m *costmodel.Model, ts *task.Set, opts FeedbackOptions) (*FeedbackResult, error) {
	opts = opts.withDefaults()

	span := opts.Obs.Span.Child("feedback")
	defer span.End()
	opts.Obs.Counter("feedback.runs").Inc()
	// Every stage below records under a per-round child span.
	roundSpan := span.Child("feedback.round0")
	if opts.LPHTA.Obs.Metrics == nil {
		opts.LPHTA.Obs.Metrics = opts.Obs.Metrics
	}
	if opts.Sim.Obs.Metrics == nil {
		opts.Sim.Obs.Metrics = opts.Obs.Metrics
	}
	opts.LPHTA.Obs.Span = roundSpan
	opts.Sim.Obs.Span = roundSpan

	res := &FeedbackResult{}
	record := func(a *core.Assignment) (*Result, error) {
		simRes, err := Run(m, ts, a, opts.Sim)
		if err != nil {
			return nil, err
		}
		metrics, err := core.Evaluate(m, ts, a)
		if err != nil {
			return nil, err
		}
		lost := 0
		if simRes.Faults != nil {
			lost = simRes.Faults.Lost
		}
		res.Rounds = append(res.Rounds, RoundStats{
			Misses:      simRes.DeadlineViolations,
			Cancelled:   simRes.Cancelled,
			Lost:        lost,
			Energy:      metrics.TotalEnergy,
			MeanLatency: simRes.MeanLatency(),
		})
		return simRes, nil
	}
	better := func(i, j int) bool { // is round i better than round j?
		a, b := res.Rounds[i], res.Rounds[j]
		// Rank by the paper's unsatisfied notion: deadline misses plus
		// cancellations (plus fault-lost tasks); energy breaks ties.
		if ua, ub := a.Misses+a.Cancelled+a.Lost, b.Misses+b.Cancelled+b.Lost; ua != ub {
			return ua < ub
		}
		return a.Energy < b.Energy
	}

	// Round 0: plain LP-HTA.
	base, err := core.LPHTA(m, ts, &opts.LPHTA)
	if err != nil {
		return nil, fmt.Errorf("sim: feedback round 0: %w", err)
	}
	simRes, err := record(base.Assignment)
	roundSpan.End()
	if err != nil {
		return nil, err
	}
	res.Assignment = base.Assignment
	res.Best = 0
	opts.Obs.Counter("feedback.rounds").Inc()

	// Per-task tightening factors in task-set arena order, refined each
	// round. The rebuilt sets below preserve that order, so simulation
	// outcomes and tightening entries always align by index.
	tighten := make([]float64, ts.Len())
	for i := range tighten {
		tighten[i] = 1
	}

	for round := 1; round <= opts.Rounds; round++ {
		roundSpan := span.Child(fmt.Sprintf("feedback.round%d", round))
		opts.LPHTA.Obs.Span = roundSpan
		opts.Sim.Obs.Span = roundSpan
		// Update tightening from the latest simulation: a task that ran
		// f times slower than planned needs an f-times tighter plan.
		for i := range simRes.Outcomes {
			o := &simRes.Outcomes[i]
			if !o.Placed || o.Analytic <= 0 {
				continue
			}
			f := o.Completion.Seconds() / o.Analytic.Seconds()
			if f > tighten[i] {
				tighten[i] = f
			}
			if tighten[i] > opts.MaxTightening {
				tighten[i] = opts.MaxTightening
			}
		}

		adjusted := &task.Set{}
		adjusted.Grow(ts.Len())
		for i := 0; i < ts.Len(); i++ {
			copyT := *ts.At(i)
			copyT.Deadline /= units.Duration(tighten[i])
			if err := adjusted.Add(&copyT); err != nil {
				return nil, fmt.Errorf("sim: feedback round %d: %w", round, err)
			}
		}
		batch, err := core.LPHTA(m, adjusted, &opts.LPHTA)
		if err != nil {
			return nil, fmt.Errorf("sim: feedback round %d: %w", round, err)
		}
		replanned := batch.Assignment
		simRes, err = record(replanned)
		roundSpan.End()
		if err != nil {
			return nil, err
		}
		opts.Obs.Counter("feedback.rounds").Inc()
		opts.Obs.Counter("feedback.replans").Inc()
		if better(len(res.Rounds)-1, res.Best) {
			res.Best = len(res.Rounds) - 1
			res.Assignment = replanned
		}
	}
	best := res.Rounds[res.Best]
	opts.Obs.Gauge("feedback.best_round").Set(float64(res.Best))
	opts.Obs.Gauge("feedback.best_unsatisfied").Set(float64(best.Misses + best.Cancelled + best.Lost))
	span.Annotate("best_round", res.Best)
	span.Annotate("rounds", len(res.Rounds))
	return res, nil
}

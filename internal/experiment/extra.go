package experiment

import (
	"errors"
	"fmt"
	"strings"

	"dsmec/internal/core"
	"dsmec/internal/cover"
	"dsmec/internal/datamap"
	"dsmec/internal/rng"
	"dsmec/internal/sim"
	"dsmec/internal/stats"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// SimCheck goes beyond the paper: it replays LP-HTA assignments in the
// discrete-event simulator and reports how much queueing inflates the
// analytic latencies, plus the deadline violations the closed-form model
// cannot see.
func SimCheck(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{
		ID: "simcheck", Title: "analytic cost model vs discrete-event simulation (LP-HTA)",
		XLabel: "tasks", YLabel: "latency (s) and violations",
		Columns: []string{"analytic mean", "simulated mean", "inflation x", "sim deadline misses (%)"},
		Notes: []string{
			"energy matches the analytic model exactly by construction; queueing shifts time only",
		},
	}
	type simTrial struct {
		analytic, simulated, misses float64
		placed                      bool
	}
	counts := taskCounts(opts.Quick)
	rows, err := collectIndexed(len(counts), opts.workers(), func(pi int) (Row, error) {
		n := counts[pi]
		trials, err := collectIndexed(opts.Trials, opts.workers(), func(trial int) (simTrial, error) {
			src := rng.NewSource(opts.Seed).Derive(fmt.Sprintf("simcheck-%d-%d", n, trial))
			sc, err := workload.GenerateHolistic(src, workload.Params{NumTasks: n})
			if err != nil {
				return simTrial{}, err
			}
			res, err := core.LPHTA(sc.Model, sc.Tasks, nil)
			if err != nil {
				return simTrial{}, err
			}
			m, err := core.Evaluate(sc.Model, sc.Tasks, res.Assignment)
			if err != nil {
				return simTrial{}, err
			}
			sm, err := sim.Run(sc.Model, sc.Tasks, res.Assignment, sim.Config{})
			if err != nil {
				return simTrial{}, err
			}
			tr := simTrial{
				analytic:  m.MeanLatency().Seconds(),
				simulated: sm.MeanLatency().Seconds(),
			}
			placed := sc.Tasks.Len() - sm.Cancelled
			if placed > 0 {
				tr.placed = true
				tr.misses = 100 * float64(sm.DeadlineViolations) / float64(placed)
			}
			return tr, nil
		})
		if err != nil {
			return Row{}, err
		}
		var analytic, simulated, misses stats.Series
		for _, tr := range trials {
			analytic.Add(tr.analytic)
			simulated.Add(tr.simulated)
			if tr.placed {
				misses.Add(tr.misses)
			}
		}
		inflation := 0.0
		if analytic.Mean() > 0 {
			inflation = simulated.Mean() / analytic.Mean()
		}
		return Row{X: fmt.Sprintf("%d", n), Values: []float64{
			analytic.Mean(), simulated.Mean(), inflation, misses.Mean(),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// RatioStudy goes beyond the paper: it measures LP-HTA's empirical
// approximation ratio against the exact HTA optimum (core.OptimalHTA:
// branch-and-bound over the structured P2 solver, far beyond brute-force
// reach) and compares it with the Theorem 2 bound 3 + Δ/E_LP^OPT.
func RatioStudy(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{
		ID: "ratio", Title: "LP-HTA empirical ratio vs exact ILP optimum",
		XLabel: "tasks", YLabel: "energy ratio",
		Columns: []string{"mean ratio", "max ratio", "mean theorem-2 bound", "feasible instances"},
	}
	counts := []int{8, 16, 32, 48}
	if opts.Quick {
		counts = []int{8, 32}
	}
	// A trial that yields no ratio says why, so the figure can show
	// what its means leave out.
	const (
		ratioOK = iota
		ratioNodeLimit
		ratioOverConstrained
		ratioCancelled
	)
	type ratioTrial struct {
		outcome      int
		ratio, bound float64
	}
	trials := opts.Trials * 4 // small instances are cheap; average harder
	dropped := make([][ratioCancelled + 1]int, len(counts))
	rows, err := collectIndexed(len(counts), opts.workers(), func(pi int) (Row, error) {
		n := counts[pi]
		results, err := collectIndexed(trials, opts.workers(), func(trial int) (ratioTrial, error) {
			src := rng.NewSource(opts.Seed).Derive(fmt.Sprintf("ratio-%d-%d", n, trial))
			// Deadlines span [2, 8]x the best achievable time so that
			// capacity-forced offloads stay deadline-feasible and full
			// placements exist even under contention.
			sc, err := workload.GenerateHolistic(src, workload.Params{
				NumDevices: 8, NumStations: 2, NumTasks: n,
				DeviceCap: 8, StationCap: 24,
				DeadlineSlackMin: 2, DeadlineSlackMax: 8,
			})
			if err != nil {
				return ratioTrial{}, err
			}
			opt, err := core.OptimalHTA(sc.Model, sc.Tasks)
			if errors.Is(err, core.ErrNodeLimit) {
				return ratioTrial{outcome: ratioNodeLimit}, nil // too hard to prove optimal
			}
			if errors.Is(err, core.ErrNoFeasible) {
				return ratioTrial{outcome: ratioOverConstrained}, nil
			}
			if err != nil {
				return ratioTrial{}, err
			}
			optM, err := core.Evaluate(sc.Model, sc.Tasks, opt)
			if err != nil {
				return ratioTrial{}, err
			}
			res, err := core.LPHTA(sc.Model, sc.Tasks, nil)
			if err != nil {
				return ratioTrial{}, err
			}
			lpM, err := core.Evaluate(sc.Model, sc.Tasks, res.Assignment)
			if err != nil {
				return ratioTrial{}, err
			}
			if lpM.Cancelled > 0 || optM.TotalEnergy <= 0 {
				return ratioTrial{outcome: ratioCancelled}, nil // ratio undefined when LP-HTA cancels
			}
			return ratioTrial{
				ratio: float64(lpM.TotalEnergy) / float64(optM.TotalEnergy),
				bound: res.RatioBoundEstimate(),
			}, nil
		})
		if err != nil {
			return Row{}, err
		}
		var ratios, bounds stats.Series
		feasible := 0
		for _, tr := range results {
			dropped[pi][tr.outcome]++
			if tr.outcome != ratioOK {
				continue
			}
			feasible++
			ratios.Add(tr.ratio)
			bounds.Add(tr.bound)
		}
		if feasible == 0 {
			return Row{X: fmt.Sprintf("%d", n), Values: []float64{0, 0, 0, 0}}, nil
		}
		return Row{X: fmt.Sprintf("%d", n), Values: []float64{
			ratios.Mean(), ratios.Max(), bounds.Mean(), float64(feasible),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	left := make([]string, len(counts))
	for pi, d := range dropped {
		left[pi] = fmt.Sprintf("%d tasks %d/%d/%d", counts[pi],
			d[ratioNodeLimit], d[ratioOverConstrained], d[ratioCancelled])
	}
	f.Notes = append(f.Notes,
		"instances left out of each row (node-limited/over-constrained/LP-HTA-cancelled): "+strings.Join(left, ", "),
		"a node-limited instance hit the 20,000-node branch-and-bound limit before its optimum was proven")
	return f, nil
}

// AblationRounding compares the paper's largest-fraction rounding with
// randomized rounding on energy and cancellations.
func AblationRounding(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{
		ID: "ablation-rounding", Title: "LP-HTA rounding rule ablation",
		XLabel: "tasks", YLabel: "total energy (J) / cancelled",
		Columns: []string{"largest-fraction (J)", "randomized (J)", "largest cancels", "randomized cancels"},
	}
	type roundTrial struct {
		eL, eR, cL, cR float64
	}
	counts := taskCounts(opts.Quick)
	rows, err := collectIndexed(len(counts), opts.workers(), func(pi int) (Row, error) {
		n := counts[pi]
		trials, err := collectIndexed(opts.Trials, opts.workers(), func(trial int) (roundTrial, error) {
			src := rng.NewSource(opts.Seed).Derive(fmt.Sprintf("ablr-%d-%d", n, trial))
			sc, err := workload.GenerateHolistic(src, workload.Params{NumTasks: n})
			if err != nil {
				return roundTrial{}, err
			}
			var tr roundTrial
			for _, randomized := range []bool{false, true} {
				o := &core.LPHTAOptions{}
				if randomized {
					o.Rounding = core.RoundRandomized
					o.Rand = src.Stream("rounding")
				}
				res, err := core.LPHTA(sc.Model, sc.Tasks, o)
				if err != nil {
					return roundTrial{}, err
				}
				m, err := core.Evaluate(sc.Model, sc.Tasks, res.Assignment)
				if err != nil {
					return roundTrial{}, err
				}
				if randomized {
					tr.eR = m.TotalEnergy.Joules()
					tr.cR = float64(m.Cancelled)
				} else {
					tr.eL = m.TotalEnergy.Joules()
					tr.cL = float64(m.Cancelled)
				}
			}
			return tr, nil
		})
		if err != nil {
			return Row{}, err
		}
		var eL, eR, cL, cR stats.Series
		for _, tr := range trials {
			eL.Add(tr.eL)
			eR.Add(tr.eR)
			cL.Add(tr.cL)
			cR.Add(tr.cR)
		}
		return Row{X: fmt.Sprintf("%d", n), Values: []float64{
			eL.Mean(), eR.Mean(), cL.Mean(), cR.Mean(),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// AblationRepair compares the paper's largest-resource-first repair
// migration with smallest-first under deliberately tight caps.
func AblationRepair(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{
		ID: "ablation-repair", Title: "LP-HTA repair order ablation (tight caps)",
		XLabel: "tasks", YLabel: "total energy (J) / cancelled",
		Columns: []string{"largest-first (J)", "smallest-first (J)", "largest cancels", "smallest cancels"},
	}
	type repairTrial struct {
		eL, eS, cL, cS float64
	}
	counts := taskCounts(opts.Quick)
	rows, err := collectIndexed(len(counts), opts.workers(), func(pi int) (Row, error) {
		n := counts[pi]
		trials, err := collectIndexed(opts.Trials, opts.workers(), func(trial int) (repairTrial, error) {
			src := rng.NewSource(opts.Seed).Derive(fmt.Sprintf("ablm-%d-%d", n, trial))
			sc, err := workload.GenerateHolistic(src, workload.Params{
				NumTasks: n, DeviceCap: 4, StationCap: 25,
			})
			if err != nil {
				return repairTrial{}, err
			}
			var tr repairTrial
			for _, order := range []core.RepairOrder{core.RepairLargestFirst, core.RepairSmallestFirst} {
				res, err := core.LPHTA(sc.Model, sc.Tasks, &core.LPHTAOptions{Repair: order})
				if err != nil {
					return repairTrial{}, err
				}
				m, err := core.Evaluate(sc.Model, sc.Tasks, res.Assignment)
				if err != nil {
					return repairTrial{}, err
				}
				if order == core.RepairLargestFirst {
					tr.eL = m.TotalEnergy.Joules()
					tr.cL = float64(m.Cancelled)
				} else {
					tr.eS = m.TotalEnergy.Joules()
					tr.cS = float64(m.Cancelled)
				}
			}
			return tr, nil
		})
		if err != nil {
			return Row{}, err
		}
		var eL, eS, cL, cS stats.Series
		for _, tr := range trials {
			eL.Add(tr.eL)
			eS.Add(tr.eS)
			cL.Add(tr.cL)
			cS.Add(tr.cS)
		}
		return Row{X: fmt.Sprintf("%d", n), Values: []float64{
			eL.Mean(), eS.Mean(), cL.Mean(), cS.Mean(),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// AblationLPT compares the paper's smallest-remaining-set division greedy
// with the LPT block-by-block variant on max slice load and processing
// time, against the exact P3 optimum from branch-and-bound.
func AblationLPT(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{
		ID: "ablation-lpt", Title: "data division greedy ablation",
		XLabel: "tasks", YLabel: "max load (blocks) / processing time (s)",
		Columns: []string{"paper max load", "LPT max load", "paper proc (s)", "LPT proc (s)"},
	}
	type lptTrial struct {
		loadP, loadL, timeP, timeL float64
	}
	counts := taskCounts(opts.Quick)
	rows, err := collectIndexed(len(counts), opts.workers(), func(pi int) (Row, error) {
		n := counts[pi]
		trials, err := collectIndexed(opts.Trials, opts.workers(), func(trial int) (lptTrial, error) {
			src := rng.NewSource(opts.Seed).Derive(fmt.Sprintf("abll-%d-%d", n, trial))
			sc, err := workload.GenerateDivisible(src, workload.Params{NumTasks: n})
			if err != nil {
				return lptTrial{}, err
			}
			var tr lptTrial
			for _, goal := range []core.Goal{core.GoalWorkload, core.GoalWorkloadLPT} {
				res, err := core.DTA(sc.Model, sc.Tasks, sc.Placement, core.DTAOptions{Goal: goal})
				if err != nil {
					return lptTrial{}, err
				}
				if goal == core.GoalWorkload {
					tr.loadP = float64(res.Coverage.MaxLoad)
					tr.timeP = res.Metrics.ProcessingTime.Seconds()
				} else {
					tr.loadL = float64(res.Coverage.MaxLoad)
					tr.timeL = res.Metrics.ProcessingTime.Seconds()
				}
			}
			return tr, nil
		})
		if err != nil {
			return Row{}, err
		}
		var loadP, loadL, timeP, timeL stats.Series
		for _, tr := range trials {
			loadP.Add(tr.loadP)
			loadL.Add(tr.loadL)
			timeP.Add(tr.timeP)
			timeL.Add(tr.timeL)
		}
		return Row{X: fmt.Sprintf("%d", n), Values: []float64{
			loadP.Mean(), loadL.Mean(), timeP.Mean(), timeL.Mean(),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// DivisionRatio goes beyond the paper: against the exact P3 optimum
// (cover.OptimalMaxLoad, by bipartite matching), it measures the
// empirical approximation ratio of the paper's smallest-remaining-set
// greedy and of the LPT variant. The paper claims a 1/(1−e⁻¹) ≈ 1.58
// bound for its greedy (Corollary 2); the measured worst case exceeds
// it, while LPT stays near-optimal — see EXPERIMENTS.md.
func DivisionRatio(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{
		ID: "division-ratio", Title: "data-division greedy vs exact P3 optimum (small instances)",
		XLabel: "blocks", YLabel: "max-load ratio to optimal",
		Columns: []string{"paper mean", "paper worst", "LPT mean", "LPT worst", "instances"},
	}
	sizes := []int{24, 48, 96}
	if opts.Quick {
		sizes = []int{24, 96}
	}
	type divTrial struct {
		rp, rl float64
	}
	trials := opts.Trials * 4
	rows, err := collectIndexed(len(sizes), opts.workers(), func(pi int) (Row, error) {
		blocks := sizes[pi]
		results, err := collectIndexed(trials, opts.workers(), func(trial int) (divTrial, error) {
			src := rng.NewSource(opts.Seed).Derive(fmt.Sprintf("divratio-%d-%d", blocks, trial))
			universe, usable, err := randomDivision(src, 8, blocks, blocks/3)
			if err != nil {
				return divTrial{}, err
			}
			opt, err := cover.OptimalMaxLoad(universe, usable)
			if err != nil {
				return divTrial{}, err
			}
			paper, err := cover.BalancedPartition(universe, usable)
			if err != nil {
				return divTrial{}, err
			}
			lpt, err := cover.BalancedPartitionLPT(universe, usable)
			if err != nil {
				return divTrial{}, err
			}
			return divTrial{
				rp: float64(paper.MaxLoad) / float64(opt.MaxLoad),
				rl: float64(lpt.MaxLoad) / float64(opt.MaxLoad),
			}, nil
		})
		if err != nil {
			return Row{}, err
		}
		var rp, rl stats.Series
		for _, tr := range results {
			rp.Add(tr.rp)
			rl.Add(tr.rl)
		}
		return Row{X: fmt.Sprintf("%d", blocks), Values: []float64{
			rp.Mean(), rp.Max(), rl.Mean(), rl.Max(), float64(len(results)),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// randomDivision builds a random coverable P3 instance: every block is
// held by 1–3 of the devices.
func randomDivision(src *rng.Source, devices, blocks, perDev int) (*datamap.Set, []*datamap.Set, error) {
	r := src.Stream("division")
	universe := datamap.NewSet()
	for b := 0; b < blocks; b++ {
		universe.Add(datamap.BlockID(b))
	}
	usable := make([]*datamap.Set, devices)
	for i := range usable {
		usable[i] = datamap.NewSet()
		for j := 0; j < perDev; j++ {
			usable[i].Add(datamap.BlockID(r.Intn(blocks)))
		}
	}
	for b := 0; b < blocks; b++ {
		usable[r.Intn(devices)].Add(datamap.BlockID(b))
	}
	return universe, usable, nil
}

// Feedback goes beyond the paper: it runs the simulator-in-the-loop
// planner (sim.PlanWithFeedback) against plain LP-HTA and reports how many
// tasks each leaves unsatisfied under queueing, and at what energy.
func Feedback(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{
		ID: "feedback", Title: "simulator-in-the-loop replanning vs plain LP-HTA",
		XLabel: "tasks", YLabel: "unsatisfied tasks under queueing / energy (J)",
		Columns: []string{"LP-HTA unsat", "feedback unsat", "LP-HTA (J)", "feedback (J)"},
		Notes: []string{
			"unsat = simulated deadline misses + cancellations; feedback replans with deadlines tightened by measured queueing inflation",
		},
	}
	type fbTrial struct {
		uB, uF, eB, eF float64
	}
	counts := taskCounts(opts.Quick)
	rows, err := collectIndexed(len(counts), opts.workers(), func(pi int) (Row, error) {
		n := counts[pi]
		trials, err := collectIndexed(opts.Trials, opts.workers(), func(trial int) (fbTrial, error) {
			src := rng.NewSource(opts.Seed).Derive(fmt.Sprintf("fb-%d-%d", n, trial))
			sc, err := workload.GenerateHolistic(src, workload.Params{NumTasks: n})
			if err != nil {
				return fbTrial{}, err
			}
			res, err := sim.PlanWithFeedback(sc.Model, sc.Tasks, sim.FeedbackOptions{Rounds: 3})
			if err != nil {
				return fbTrial{}, err
			}
			base := res.Rounds[0]
			best := res.Rounds[res.Best]
			return fbTrial{
				uB: float64(base.Misses + base.Cancelled),
				uF: float64(best.Misses + best.Cancelled),
				eB: base.Energy.Joules(),
				eF: best.Energy.Joules(),
			}, nil
		})
		if err != nil {
			return Row{}, err
		}
		var uB, uF, eB, eF stats.Series
		for _, tr := range trials {
			uB.Add(tr.uB)
			uF.Add(tr.uF)
			eB.Add(tr.eB)
			eF.Add(tr.eF)
		}
		return Row{X: fmt.Sprintf("%d", n), Values: []float64{
			uB.Mean(), uF.Mean(), eB.Mean(), eF.Mean(),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// BatteryStudy goes beyond the paper: it uses the cost model's per-device
// energy attribution to quantify Fig. 6(b)'s motivation — DTA-Number
// "saves the energy of the majority of mobile devices" — by reporting how
// many devices drain battery at all and how hard the busiest one works.
func BatteryStudy(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{
		ID: "battery", Title: "per-device battery drain, DTA-Workload vs DTA-Number",
		XLabel: "tasks", YLabel: "devices drained / max drain (J)",
		Columns: []string{"W drained", "N drained", "W max (J)", "N max (J)", "W spared", "N spared"},
		Notes: []string{
			"drained = devices spending any battery; spared = devices spending none (of 50)",
		},
	}
	type batTrial struct {
		dW, dN, mW, mN, sW, sN float64
	}
	counts := taskCounts(opts.Quick)
	rows, err := collectIndexed(len(counts), opts.workers(), func(pi int) (Row, error) {
		n := counts[pi]
		trials, err := collectIndexed(opts.Trials, opts.workers(), func(trial int) (batTrial, error) {
			src := rng.NewSource(opts.Seed).Derive(fmt.Sprintf("bat-%d-%d", n, trial))
			sc, err := workload.GenerateDivisible(src, workload.Params{NumTasks: n})
			if err != nil {
				return batTrial{}, err
			}
			var tr batTrial
			for _, goal := range []core.Goal{core.GoalWorkload, core.GoalNumber} {
				res, err := core.DTA(sc.Model, sc.Tasks, sc.Placement, core.DTAOptions{Goal: goal})
				if err != nil {
					return batTrial{}, err
				}
				drained := float64(res.Battery.Drained())
				spared := float64(len(res.Battery.ByDevice)) - drained
				if goal == core.GoalWorkload {
					tr.dW, tr.mW, tr.sW = drained, res.Battery.Max().Joules(), spared
				} else {
					tr.dN, tr.mN, tr.sN = drained, res.Battery.Max().Joules(), spared
				}
			}
			return tr, nil
		})
		if err != nil {
			return Row{}, err
		}
		var dW, dN, mW, mN, sW, sN stats.Series
		for _, tr := range trials {
			dW.Add(tr.dW)
			dN.Add(tr.dN)
			mW.Add(tr.mW)
			mN.Add(tr.mN)
			sW.Add(tr.sW)
			sN.Add(tr.sN)
		}
		return Row{X: fmt.Sprintf("%d", n), Values: []float64{
			dW.Mean(), dN.Mean(), mW.Mean(), mN.Mean(), sW.Mean(), sN.Mean(),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// Arrivals goes beyond the paper's quasi-static assumption: the same
// LP-HTA assignment is executed in the simulator with tasks released all
// at once (the paper's setting) versus spread uniformly over growing
// arrival windows, showing how much of the queueing pain of simcheck is an
// artifact of batch arrivals.
func Arrivals(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{
		ID: "arrivals", Title: "batch vs spread arrivals (LP-HTA, 200 tasks)",
		XLabel: "arrival window (s)", YLabel: "sim misses (%) / mean sojourn (s)",
		Columns: []string{"misses (%)", "mean sojourn (s)", "analytic mean (s)"},
	}
	windows := []float64{0, 15, 30, 60, 120}
	if opts.Quick {
		windows = []float64{0, 120}
	}
	type arrTrial struct {
		misses, sojourn, analytic float64
		placed                    bool
	}
	rows, err := collectIndexed(len(windows), opts.workers(), func(pi int) (Row, error) {
		w := windows[pi]
		trials, err := collectIndexed(opts.Trials, opts.workers(), func(trial int) (arrTrial, error) {
			src := rng.NewSource(opts.Seed).Derive(fmt.Sprintf("arr-%d-%g", trial, w))
			sc, err := workload.GenerateHolistic(src, workload.Params{NumTasks: 200})
			if err != nil {
				return arrTrial{}, err
			}
			res, err := core.LPHTA(sc.Model, sc.Tasks, nil)
			if err != nil {
				return arrTrial{}, err
			}
			m, err := core.Evaluate(sc.Model, sc.Tasks, res.Assignment)
			if err != nil {
				return arrTrial{}, err
			}
			releases := make(map[task.ID]units.Duration, sc.Tasks.Len())
			if w > 0 {
				r := src.Stream("releases")
				for _, tk := range sc.Tasks.All() {
					releases[tk.ID] = units.Duration(r.Float64() * w)
				}
			}
			simRes, err := sim.RunReleases(sc.Model, sc.Tasks, res.Assignment, sim.Config{}, releases)
			if err != nil {
				return arrTrial{}, err
			}
			tr := arrTrial{
				sojourn:  simRes.MeanLatency().Seconds(),
				analytic: m.MeanLatency().Seconds(),
			}
			placed := sc.Tasks.Len() - simRes.Cancelled
			if placed > 0 {
				tr.placed = true
				tr.misses = 100 * float64(simRes.DeadlineViolations) / float64(placed)
			}
			return tr, nil
		})
		if err != nil {
			return Row{}, err
		}
		var misses, sojourn, analytic stats.Series
		for _, tr := range trials {
			if tr.placed {
				misses.Add(tr.misses)
			}
			sojourn.Add(tr.sojourn)
			analytic.Add(tr.analytic)
		}
		return Row{X: fmt.Sprintf("%.0f", w), Values: []float64{
			misses.Mean(), sojourn.Mean(), analytic.Mean(),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

package dsmec_test

import (
	"fmt"
	"testing"

	"dsmec"
)

// benchExperiment runs one registered experiment per iteration. Quick mode
// sweeps only the endpoints with a single trial, so a bench iteration is a
// representative slice of the full figure; run cmd/mecbench for the
// complete sweeps.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	def, ok := dsmec.ExperimentByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := def.Run(dsmec.ExperimentOptions{Seed: 1, Trials: 1, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig2a(b *testing.B)  { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B)  { benchExperiment(b, "fig2b") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4a(b *testing.B)  { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)  { benchExperiment(b, "fig4b") }
func BenchmarkFig5a(b *testing.B)  { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)  { benchExperiment(b, "fig5b") }
func BenchmarkFig6a(b *testing.B)  { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)  { benchExperiment(b, "fig6b") }

// Extensions and ablations.

func BenchmarkSimCheck(b *testing.B)         { benchExperiment(b, "simcheck") }
func BenchmarkRatioStudy(b *testing.B)       { benchExperiment(b, "ratio") }
func BenchmarkAblationRounding(b *testing.B) { benchExperiment(b, "ablation-rounding") }
func BenchmarkAblationRepair(b *testing.B)   { benchExperiment(b, "ablation-repair") }
func BenchmarkAblationLPT(b *testing.B)      { benchExperiment(b, "ablation-lpt") }

// Component microbenchmarks: the algorithms at the paper's largest sweep
// points.

func holisticScenario(b *testing.B, tasks int) *dsmec.Scenario {
	b.Helper()
	sc, err := dsmec.GenerateHolistic(dsmec.NewSeed(1), dsmec.WorkloadParams{NumTasks: tasks})
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

func divisibleScenario(b *testing.B, tasks int) *dsmec.Scenario {
	b.Helper()
	sc, err := dsmec.GenerateDivisible(dsmec.NewSeed(1), dsmec.WorkloadParams{
		NumTasks: tasks, MaxInput: 2000 * dsmec.Kilobyte,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

func BenchmarkLPHTA(b *testing.B) {
	for _, n := range []int{100, 450} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			sc := holisticScenario(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dsmec.LPHTA(sc.Model, sc.Tasks, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHGOS(b *testing.B) {
	sc := holisticScenario(b, 450)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsmec.HGOS(sc.Model, sc.Tasks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTAWorkload(b *testing.B) {
	for _, n := range []int{100, 900} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			sc := divisibleScenario(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dsmec.DTA(sc.Model, sc.Tasks, sc.Placement,
					dsmec.DTAOptions{Goal: dsmec.GoalWorkload}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDTANumber(b *testing.B) {
	sc := divisibleScenario(b, 450)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsmec.DTA(sc.Model, sc.Tasks, sc.Placement,
			dsmec.DTAOptions{Goal: dsmec.GoalNumber}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulator(b *testing.B) {
	sc := holisticScenario(b, 450)
	res, err := dsmec.LPHTA(sc.Model, sc.Tasks, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsmec.Simulate(sc.Model, sc.Tasks, res.Assignment, dsmec.SimConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostModelEval(b *testing.B) {
	sc := holisticScenario(b, 100)
	tasks := sc.Tasks.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Model.Eval(&tasks[i%len(tasks)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	b.Run("holistic-450", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dsmec.GenerateHolistic(dsmec.NewSeed(int64(i)),
				dsmec.WorkloadParams{NumTasks: 450}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("divisible-450", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dsmec.GenerateDivisible(dsmec.NewSeed(int64(i)),
				dsmec.WorkloadParams{NumTasks: 450}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFeedback(b *testing.B) { benchExperiment(b, "feedback") }

func BenchmarkBatteryStudy(b *testing.B) { benchExperiment(b, "battery") }

func BenchmarkDivisionRatio(b *testing.B) { benchExperiment(b, "division-ratio") }

func BenchmarkArrivals(b *testing.B) { benchExperiment(b, "arrivals") }

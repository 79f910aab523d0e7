// Package dsmec is a from-scratch Go implementation of the task-assignment
// algorithms for data-shared mobile edge computing systems from
//
//	S. Cheng, Z. Chen, J. Li, H. Gao.
//	"Task Assignment Algorithms in Data Shared Mobile Edge Computing
//	Systems", ICDCS 2019.
//
// The package is the stable facade over the implementation: it re-exports
// the system model (devices, base stations, cloud, radio and backhaul
// links), the Section II cost model, the three algorithms of the paper
// (LP-HTA for holistic tasks; DTA-Workload and DTA-Number plus task
// rearrangement for divisible tasks), the evaluation baselines, a
// discrete-event simulator that executes assignments with real queueing,
// the workload generator used by the evaluation, and the experiment
// harness that regenerates every table and figure of Section V.
//
// # Quick start
//
//	src := dsmec.NewSeed(42)
//	sc, err := dsmec.GenerateHolistic(src, dsmec.WorkloadParams{NumTasks: 100})
//	if err != nil { ... }
//	res, err := dsmec.LPHTA(sc.Model, sc.Tasks, nil)
//	if err != nil { ... }
//	metrics, err := dsmec.Evaluate(sc.Model, sc.Tasks, res.Assignment)
//
// See examples/ for complete programs and cmd/mecbench for the
// figure-by-figure reproduction of the paper's evaluation.
package dsmec

import (
	"io"
	"math/rand"
	"net/http"
	"time"

	"dsmec/internal/baseline"
	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/datamap"
	"dsmec/internal/experiment"
	"dsmec/internal/mecnet"
	"dsmec/internal/obs"
	"dsmec/internal/rng"
	"dsmec/internal/sim"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// Quantities and identifiers.
type (
	// ByteSize is a data size in bytes.
	ByteSize = units.ByteSize
	// Duration is a length of time in seconds (float64-based; the cost
	// model needs infinities and sub-nanosecond precision).
	Duration = units.Duration
	// Energy is an amount of energy in joules.
	Energy = units.Energy
	// TaskID identifies task T_ij.
	TaskID = task.ID
	// BlockID identifies one data block of the shared universe.
	BlockID = datamap.BlockID
)

// Size and time scales.
const (
	Kilobyte    = units.Kilobyte
	Megabyte    = units.Megabyte
	Second      = units.Second
	Millisecond = units.Millisecond
)

// System model.
type (
	// System is the three-level MEC topology: devices in clusters behind
	// base stations, behind one cloud.
	System = mecnet.System
	// Device is one mobile device.
	Device = mecnet.Device
	// Station is one base station.
	Station = mecnet.Station
	// CostModel evaluates the Section II delay/energy formulas.
	CostModel = costmodel.Model
	// Subsystem identifies where a task runs (device, station, cloud).
	Subsystem = costmodel.Subsystem
	// Cost is a (delay, energy) pair for one placement choice.
	Cost = costmodel.Cost
)

// Subsystem values.
const (
	OnDevice  = costmodel.SubsystemDevice
	OnStation = costmodel.SubsystemStation
	OnCloud   = costmodel.SubsystemCloud
	Cancelled = costmodel.SubsystemNone
)

// Tasks and data.
type (
	// Task is one computation task T_ij.
	Task = task.Task
	// TaskSet is an ordered collection of tasks.
	TaskSet = task.Set
	// BlockSet is a set of data blocks.
	BlockSet = datamap.Set
	// Placement records which device holds which blocks ({D_i}).
	Placement = datamap.Placement
)

// Task kinds.
const (
	Holistic  = task.Holistic
	Divisible = task.Divisible
)

// Algorithms and results.
type (
	// Assignment maps tasks to subsystems.
	Assignment = core.Assignment
	// Metrics summarizes an assignment (energy, latency, unsatisfied
	// rate).
	Metrics = core.Metrics
	// HTAResult is LP-HTA's outcome including the Theorem 2 quantities.
	HTAResult = core.HTAResult
	// LPHTAOptions tunes LP-HTA (rounding rule, repair order).
	LPHTAOptions = core.LPHTAOptions
	// DTAOptions selects the divisible-task goal.
	DTAOptions = core.DTAOptions
	// DTAResult is the outcome of the divisible-task pipeline.
	DTAResult = core.DTAResult
	// Goal is the data-division objective.
	Goal = core.Goal
)

// DTA goals.
const (
	GoalWorkload = core.GoalWorkload
	GoalNumber   = core.GoalNumber
)

// Workloads and experiments.
type (
	// WorkloadParams configures scenario generation (Section V.A
	// defaults).
	WorkloadParams = workload.Params
	// Scenario is a generated system + cost model + tasks (+ placement).
	Scenario = workload.Scenario
	// Seed derives independent named random streams.
	Seed = rng.Source
	// ExperimentOptions tunes a figure reproduction.
	ExperimentOptions = experiment.Options
	// Figure is a reproduced table or figure.
	Figure = experiment.Figure
	// Experiment pairs an id with its runner.
	Experiment = experiment.Definition
)

// Simulation.
type (
	// SimConfig sizes the discrete-event simulator's shared resources.
	SimConfig = sim.Config
	// SimResult is a simulation run's outcome.
	SimResult = sim.Result
)

// NewSeed returns a seed from which all scenario randomness derives.
func NewSeed(seed int64) *Seed { return rng.NewSource(seed) }

// NewCostModel builds the Section II cost model over a system; nil cycle
// and result models default to the paper's λ = 330 cycles/byte and η = 0.2.
func NewCostModel(sys *System) (*CostModel, error) {
	return costmodel.New(sys, nil, nil)
}

// GenerateHolistic builds a holistic-task scenario with the Section V.A
// parameter defaults.
func GenerateHolistic(src *Seed, params WorkloadParams) (*Scenario, error) {
	return workload.GenerateHolistic(src, params)
}

// GenerateDivisible builds a divisible-task scenario over a shared block
// universe with overlapping device holdings.
func GenerateDivisible(src *Seed, params WorkloadParams) (*Scenario, error) {
	return workload.GenerateDivisible(src, params)
}

// LPHTA runs the Section III holistic task assignment (LP relaxation,
// rounding, repair). A nil options value gives the paper's configuration.
func LPHTA(m *CostModel, ts *TaskSet, opts *LPHTAOptions) (*HTAResult, error) {
	return core.LPHTA(m, ts, opts)
}

// DTA runs the Section IV divisible task assignment: data division per
// opts.Goal, task rearrangement, LP-HTA scheduling, and descriptor/result
// accounting.
func DTA(m *CostModel, ts *TaskSet, placement *Placement, opts DTAOptions) (*DTAResult, error) {
	return core.DTA(m, ts, placement, opts)
}

// Evaluate computes the metrics of an assignment under the analytic cost
// model.
func Evaluate(m *CostModel, ts *TaskSet, a *Assignment) (*Metrics, error) {
	return core.Evaluate(m, ts, a)
}

// CheckFeasible verifies the HTA constraints C1–C5 against an assignment.
func CheckFeasible(m *CostModel, ts *TaskSet, a *Assignment) error {
	return core.CheckFeasible(m, ts, a)
}

// Simulate executes an assignment in the discrete-event simulator,
// returning realized (queueing-aware) latencies.
func Simulate(m *CostModel, ts *TaskSet, a *Assignment, cfg SimConfig) (*SimResult, error) {
	return sim.Run(m, ts, a, cfg)
}

// Baselines of the paper's evaluation.

// AllToC assigns every task to the cloud.
func AllToC(ts *TaskSet) *Assignment { return baseline.AllToC(ts) }

// AllOffload offloads every task to its station (until max_S) or the
// cloud.
func AllOffload(m *CostModel, ts *TaskSet) (*Assignment, error) {
	return baseline.AllOffload(m, ts)
}

// HGOS is the reimplemented heuristic greedy offloading scheme of [12]:
// latency-greedy, capacity-aware, deadline-blind.
func HGOS(m *CostModel, ts *TaskSet) (*Assignment, error) {
	return baseline.HGOS(m, ts)
}

// RandomAssign places every task uniformly at random.
func RandomAssign(r *rand.Rand, ts *TaskSet) *Assignment {
	return baseline.Random(r, ts)
}

// BruteForceHTA computes the exact HTA optimum on small instances.
func BruteForceHTA(m *CostModel, ts *TaskSet) (*Assignment, error) {
	return baseline.BruteForceHTA(m, ts)
}

// Experiments returns every reproducible artifact: the paper's Table I and
// Figs. 2–6 plus the validation and ablation studies.
func Experiments() []Experiment { return experiment.Registry() }

// ExperimentByID looks up one experiment.
func ExperimentByID(id string) (Experiment, bool) { return experiment.ByID(id) }

// Feedback planning (extension beyond the paper).
type (
	// FeedbackOptions tunes the simulator-in-the-loop planner.
	FeedbackOptions = sim.FeedbackOptions
	// FeedbackResult is its outcome.
	FeedbackResult = sim.FeedbackResult
)

// PlanWithFeedback plans with LP-HTA, measures queueing inflation in the
// discrete-event simulator, and replans with tightened deadlines until the
// unsatisfied-task count stops improving.
func PlanWithFeedback(m *CostModel, ts *TaskSet, opts FeedbackOptions) (*FeedbackResult, error) {
	return sim.PlanWithFeedback(m, ts, opts)
}

// Observability: metrics, tracing, and run manifests.
type (
	// Instruments selects where an operation records metrics and trace
	// spans; the zero value is disabled. Options types (LPHTAOptions,
	// DTAOptions, SimConfig, FeedbackOptions) embed one as their Obs
	// field.
	Instruments = obs.Instruments
	// MetricRegistry collects counters, gauges, and histograms.
	MetricRegistry = obs.Registry
	// MetricSnapshot is a point-in-time copy of a registry's values.
	MetricSnapshot = obs.Snapshot
	// Trace records spans in the Chrome trace_event format.
	Trace = obs.Trace
	// Span is one timed, annotatable operation inside a trace.
	Span = obs.Span
	// RunManifest is the machine-readable record of one run.
	RunManifest = obs.Manifest
)

// NewMetricRegistry returns an empty metric registry.
func NewMetricRegistry() *MetricRegistry { return obs.NewRegistry() }

// NewTrace starts a span recorder; export with WriteJSON/WriteFile and
// open the result in chrome://tracing or https://ui.perfetto.dev.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// NewRunManifest starts a run manifest stamped with the environment and
// the wall/CPU clocks; Finish it with a registry before writing.
func NewRunManifest(tool string, args []string) *RunManifest {
	return obs.NewManifest(tool, args)
}

// SetGlobalMetrics installs the process-wide default registry that
// instrumented code without an explicit Instruments value records to
// (nil disables).
func SetGlobalMetrics(reg *MetricRegistry) { obs.SetGlobal(reg) }

// GlobalMetrics returns the process-wide default registry, nil when
// disabled.
func GlobalMetrics() *MetricRegistry { return obs.Global() }

// Live introspection: structured logging, the exposition server, and
// periodic registry snapshots.
type (
	// Logger is a nil-safe slog wrapper; a nil *Logger discards
	// everything, so instrumented code never branches on "logging on?".
	Logger = obs.Logger
	// ObsServer serves /metrics (Prometheus text), /metrics.json,
	// /manifest, and /debug/pprof for a live run.
	ObsServer = obs.Server
	// RegistrySnapshotter appends timestamped registry snapshots to a
	// JSON Lines file while a run progresses.
	RegistrySnapshotter = obs.Snapshotter
	// RegistrySnapshotRecord is one line of that file: cumulative
	// metrics plus the counter deltas since the previous record.
	RegistrySnapshotRecord = obs.SnapshotRecord
)

// NewLogger builds a structured logger writing to w at the given level
// ("debug", "info", "warn", "error", or "off") and format ("text" or
// "json"). Level "off" returns nil, which every log call treats as a
// no-op.
func NewLogger(w io.Writer, level, format string) (*Logger, error) {
	return obs.NewLogger(w, level, format)
}

// SetGlobalLogger installs the process-wide default logger that
// instrumented code without an explicit Instruments.Log records to (nil
// disables).
func SetGlobalLogger(l *Logger) { obs.SetGlobalLogger(l) }

// GlobalLogger returns the process-wide default logger, nil when
// disabled.
func GlobalLogger() *Logger { return obs.GlobalLogger() }

// NewObsServer starts the live exposition server on addr (host:port;
// port 0 picks a free one) over a registry and an optional in-flight
// manifest. Close it when the run ends.
func NewObsServer(addr string, reg *MetricRegistry, m *RunManifest) (*ObsServer, error) {
	return obs.NewServer(addr, reg, m)
}

// ObsHandler returns the exposition server's http.Handler without
// binding a listener, for embedding into an existing mux.
func ObsHandler(reg *MetricRegistry, m *RunManifest) http.Handler {
	return obs.Handler(reg, m)
}

// StartRegistrySnapshotter appends a snapshot of reg to path every
// interval until Close, which writes one final record.
func StartRegistrySnapshotter(path string, interval time.Duration, reg *MetricRegistry) (*RegistrySnapshotter, error) {
	return obs.StartSnapshotter(path, interval, reg)
}

// ReadRegistrySnapshots loads every record of a snapshot JSONL file.
func ReadRegistrySnapshots(path string) ([]RegistrySnapshotRecord, error) {
	return obs.ReadSnapshots(path)
}

// WritePrometheus renders a metric snapshot in the Prometheus text
// exposition format (version 0.0.4).
func WritePrometheus(w io.Writer, s MetricSnapshot) error {
	return obs.WritePrometheus(w, s)
}

// BatteryReport is the per-device battery drain of an assignment.
type BatteryReport = core.BatteryReport

// Battery computes per-device battery drain using the cost model's energy
// attribution (who pays which joule).
func Battery(m *CostModel, ts *TaskSet, a *Assignment) (*BatteryReport, error) {
	return core.Battery(m, ts, a)
}

// SimulateReleases executes an assignment with per-task release times,
// relaxing the paper's quasi-static assumption; deadlines are checked
// against sojourn time (completion minus release).
func SimulateReleases(m *CostModel, ts *TaskSet, a *Assignment, cfg SimConfig, releases map[TaskID]Duration) (*SimResult, error) {
	return sim.RunReleases(m, ts, a, cfg, releases)
}

// Fault injection and recovery (extension beyond the paper).
type (
	// FaultPlan is a deterministic schedule of station outages, device
	// departures, and backhaul degradation the simulator injects as
	// first-class events (SimConfig.Faults; nil disables).
	FaultPlan = sim.FaultPlan
	// FaultParams tunes GenerateFaultPlan.
	FaultParams = sim.FaultParams
	// RecoveryPolicy tunes retry backoff and reassignment for faulted
	// tasks.
	RecoveryPolicy = sim.RecoveryPolicy
	// FaultStats is the graceful-degradation accounting of a faulted run
	// (SimResult.Faults).
	FaultStats = sim.FaultStats
	// FaultEvent is one entry of a run's fault/recovery log
	// (SimResult.FaultLog).
	FaultEvent = sim.FaultEvent
	// Survivors describes the degraded topology for ReplanOnSurvivors.
	Survivors = core.Survivors
)

// DefaultFaultParams is the CLI's -faults preset.
func DefaultFaultParams() FaultParams { return sim.DefaultFaultParams() }

// GenerateFaultPlan draws a deterministic fault schedule for the topology;
// the same (seed, topology, params) always yields the same plan.
func GenerateFaultPlan(src *Seed, sys *System, params FaultParams) *FaultPlan {
	return sim.GenerateFaultPlan(src, sys, params)
}

// ReplanOnSurvivors re-runs the cost model for one orphaned task against
// the degraded topology and returns the subsystem it should move to
// (Cancelled when nothing survives for it).
func ReplanOnSurvivors(m *CostModel, t *Task, sv Survivors) (Subsystem, error) {
	return core.ReplanOnSurvivors(m, t, sv)
}

package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/mecnet"
	"dsmec/internal/obs"
	"dsmec/internal/rng"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

// Link identifies one of a station's two backhaul ports.
type Link int

// The two backhaul links of a station.
const (
	LinkWire Link = iota + 1 // station↔station wire
	LinkWAN                  // station↔cloud WAN uplink
)

// String names the link.
func (l Link) String() string {
	switch l {
	case LinkWire:
		return "wire"
	case LinkWAN:
		return "wan"
	default:
		return fmt.Sprintf("Link(%d)", int(l))
	}
}

// StationOutage takes a station (its CPU and both backhaul ports) down at
// At for Repair; stages in service or queued there fail, and arrivals fail
// until the repair completes.
type StationOutage struct {
	Station int
	At      units.Duration
	Repair  units.Duration
}

// DeviceDeparture removes a device (churn) at At, permanently: its radio
// and CPU never come back, tasks homed on it are lost, and tasks reading
// its data cannot be reassembled.
type DeviceDeparture struct {
	Device int
	At     units.Duration
}

// LinkDegradation multiplies the service time of transfers *starting*
// within [At, At+Duration) on one backhaul port by Slowdown (≥ 1).
// Degraded transfers that exceed the plan's TransferTimeout fail.
type LinkDegradation struct {
	Station  int
	Link     Link
	At       units.Duration
	Duration units.Duration
	Slowdown float64
}

// RecoveryPolicy tunes what happens after an attempt fails. The zero
// value takes the defaults: 3 retries with 500 ms base backoff capped at
// 8 s, then one reassignment via the cost model on the degraded topology.
type RecoveryPolicy struct {
	// MaxRetries is how many times a failed attempt is retried on the
	// same subsystem before the task is reassigned or lost. Default 3.
	MaxRetries int
	// BackoffBase is the first retry delay; attempt k waits
	// min(BackoffBase·2^(k-1), BackoffCap). Defaults 500 ms and 8 s.
	BackoffBase units.Duration
	BackoffCap  units.Duration
	// NoReassign disables the replan-on-survivors step: tasks whose
	// retries are exhausted are lost instead of reassigned.
	NoReassign bool
}

func (p RecoveryPolicy) withDefaults() RecoveryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = units.Duration(0.5)
	}
	if p.BackoffCap == 0 {
		p.BackoffCap = 8 * units.Second
	}
	return p
}

// backoff returns the delay before retry number k (1-based), capped
// exponential.
func (p RecoveryPolicy) backoff(k int) units.Duration {
	d := p.BackoffBase
	for i := 1; i < k; i++ {
		d *= 2
		if d >= p.BackoffCap {
			return p.BackoffCap
		}
	}
	if d > p.BackoffCap {
		d = p.BackoffCap
	}
	return d
}

// FaultPlan is a deterministic schedule of infrastructure faults the
// discrete-event engine consumes as first-class events, plus the recovery
// policy applied to the tasks the faults orphan. A nil plan disables
// fault injection entirely (the engine's output is bit-identical to a
// fault-free build); the same plan over the same scenario reproduces the
// exact same event log on every run.
type FaultPlan struct {
	StationOutages   []StationOutage
	DeviceDepartures []DeviceDeparture
	LinkDegradations []LinkDegradation
	// TransferTimeout fails any backhaul transfer whose (possibly
	// degraded) service time exceeds it. Zero disables timeouts.
	TransferTimeout units.Duration
	Recovery        RecoveryPolicy
}

// Empty reports whether the plan schedules no faults at all.
func (p *FaultPlan) Empty() bool {
	return p == nil || (len(p.StationOutages) == 0 && len(p.DeviceDepartures) == 0 &&
		len(p.LinkDegradations) == 0 && p.TransferTimeout == 0)
}

// Validate checks the plan against a topology.
func (p *FaultPlan) Validate(sys *mecnet.System) error {
	if p == nil {
		return nil
	}
	for _, o := range p.StationOutages {
		if o.Station < 0 || o.Station >= sys.NumStations() {
			return fmt.Errorf("sim: fault plan: station %d out of range", o.Station)
		}
		if o.At < 0 || o.Repair < 0 || !o.At.IsFinite() || !o.Repair.IsFinite() {
			return fmt.Errorf("sim: fault plan: invalid outage window at %v for %v", o.At, o.Repair)
		}
	}
	for _, d := range p.DeviceDepartures {
		if d.Device < 0 || d.Device >= sys.NumDevices() {
			return fmt.Errorf("sim: fault plan: device %d out of range", d.Device)
		}
		if d.At < 0 || !d.At.IsFinite() {
			return fmt.Errorf("sim: fault plan: invalid departure time %v", d.At)
		}
	}
	for _, g := range p.LinkDegradations {
		if g.Station < 0 || g.Station >= sys.NumStations() {
			return fmt.Errorf("sim: fault plan: station %d out of range", g.Station)
		}
		if g.Link != LinkWire && g.Link != LinkWAN {
			return fmt.Errorf("sim: fault plan: unknown link %d", int(g.Link))
		}
		if g.Slowdown < 1 {
			return fmt.Errorf("sim: fault plan: slowdown %g < 1", g.Slowdown)
		}
		if g.At < 0 || g.Duration < 0 || !g.At.IsFinite() || !g.Duration.IsFinite() {
			return fmt.Errorf("sim: fault plan: invalid degradation window at %v for %v", g.At, g.Duration)
		}
	}
	if p.TransferTimeout < 0 || !p.TransferTimeout.IsFinite() {
		return fmt.Errorf("sim: fault plan: invalid transfer timeout %v", p.TransferTimeout)
	}
	return nil
}

// FaultParams tunes GenerateFaultPlan. Rates are expected event counts
// over the horizon (per station, per device, or per backhaul link); zero
// rates generate no faults of that kind.
type FaultParams struct {
	// Horizon is the window faults are drawn in. Default 4 s.
	Horizon units.Duration
	// OutageRate is the expected number of outages per station.
	OutageRate float64
	// MeanRepair is the mean outage repair time (exponential). Default 1 s.
	MeanRepair units.Duration
	// ChurnRate is the probability (0..1) that a device departs.
	ChurnRate float64
	// DegradeRate is the expected number of degradation windows per
	// backhaul link (each station has two: wire and WAN).
	DegradeRate float64
	// MeanDegrade is the mean degradation window length (exponential).
	// Default 2 s.
	MeanDegrade units.Duration
	// Slowdown multiplies degraded transfer times. Default 4.
	Slowdown float64
	// TransferTimeout fails transfers exceeding it; zero disables.
	TransferTimeout units.Duration
	// Recovery is copied into the plan.
	Recovery RecoveryPolicy

	// MassOutageFrac takes that fraction of stations (rounded up, chosen
	// by seeded shuffle) down simultaneously at MassOutageAt for
	// MassOutageRepair — a correlated regional failure rather than the
	// independent Poisson outages of OutageRate. Zero disables.
	MassOutageFrac   float64
	MassOutageAt     units.Duration
	MassOutageRepair units.Duration // default: MeanRepair
}

func (p FaultParams) withDefaults() FaultParams {
	if p.Horizon == 0 {
		p.Horizon = 4 * units.Second
	}
	if p.MeanRepair == 0 {
		p.MeanRepair = 1 * units.Second
	}
	if p.MeanDegrade == 0 {
		p.MeanDegrade = 2 * units.Second
	}
	if p.Slowdown == 0 {
		p.Slowdown = 4
	}
	return p
}

// DefaultFaultParams is the CLI's -faults preset: one expected outage and
// one degradation window per station, 5% device churn, 4× slowdown, 2 s
// transfer timeouts. The default horizon (4 s) and repair scale (1 s mean)
// match the quasi-static runs the evaluation replays, whose makespans are
// a few seconds.
func DefaultFaultParams() FaultParams {
	return FaultParams{
		OutageRate:      1,
		ChurnRate:       0.05,
		DegradeRate:     1,
		TransferTimeout: 2 * units.Second,
	}
}

// GenerateFaultPlan draws a deterministic fault schedule for the topology
// from the source's named streams: the same (seed, topology, params)
// triple always produces the same plan.
func GenerateFaultPlan(src *rng.Source, sys *mecnet.System, params FaultParams) *FaultPlan {
	params = params.withDefaults()
	plan := &FaultPlan{
		TransferTimeout: params.TransferTimeout,
		Recovery:        params.Recovery,
	}
	horizon := params.Horizon.Seconds()

	r := src.Stream("faults.outages")
	for s := 0; s < sys.NumStations(); s++ {
		for i, n := 0, poisson(r, params.OutageRate); i < n; i++ {
			plan.StationOutages = append(plan.StationOutages, StationOutage{
				Station: s,
				At:      units.Duration(r.Float64() * horizon),
				Repair:  units.Duration(r.ExpFloat64() * params.MeanRepair.Seconds()),
			})
		}
	}
	r = src.Stream("faults.churn")
	for d := 0; d < sys.NumDevices(); d++ {
		if r.Float64() < params.ChurnRate {
			plan.DeviceDepartures = append(plan.DeviceDepartures, DeviceDeparture{
				Device: d,
				At:     units.Duration(r.Float64() * horizon),
			})
		}
	}
	r = src.Stream("faults.degrade")
	for s := 0; s < sys.NumStations(); s++ {
		for _, link := range []Link{LinkWire, LinkWAN} {
			for i, n := 0, poisson(r, params.DegradeRate); i < n; i++ {
				plan.LinkDegradations = append(plan.LinkDegradations, LinkDegradation{
					Station:  s,
					Link:     link,
					At:       units.Duration(r.Float64() * horizon),
					Duration: units.Duration(r.ExpFloat64() * params.MeanDegrade.Seconds()),
					Slowdown: params.Slowdown,
				})
			}
		}
	}
	if params.MassOutageFrac > 0 {
		r = src.Stream("faults.mass")
		k := int(math.Ceil(params.MassOutageFrac * float64(sys.NumStations())))
		if k > sys.NumStations() {
			k = sys.NumStations()
		}
		repair := params.MassOutageRepair
		if repair == 0 {
			repair = params.MeanRepair
		}
		victims := r.Perm(sys.NumStations())[:k]
		sort.Ints(victims)
		for _, s := range victims {
			plan.StationOutages = append(plan.StationOutages, StationOutage{
				Station: s,
				At:      params.MassOutageAt,
				Repair:  repair,
			})
		}
	}
	return plan
}

// poisson draws a Poisson-distributed count (Knuth's method; the means
// used here are single digits, so the loop is short).
func poisson(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
		if k > 10000 { // unreachable for sane rates; bounds the loop
			return k
		}
	}
}

// FaultEvent is one entry of the run's fault/recovery log. The log is a
// pure function of (scenario, assignment, fault plan): replaying the same
// inputs yields the same sequence, which the determinism tests enforce.
type FaultEvent struct {
	At     units.Duration
	Kind   string // station.down/up, device.leave, link.degrade/restore, attempt.fail, task.retry, task.reassign, task.lost
	Detail string
}

// String renders the entry as one log line.
func (e FaultEvent) String() string {
	return fmt.Sprintf("%.6fs %s %s", e.At.Seconds(), e.Kind, e.Detail)
}

// FaultStats is the graceful-degradation accounting of one run.
type FaultStats struct {
	StationOutages   int
	DeviceDepartures int
	LinkDegradations int

	Attempts       int // plan releases, including first attempts
	FailedAttempts int
	Retries        int
	Reassignments  int
	// Lost counts placed tasks the recovery policy gave up on; they are
	// excluded from Outcomes and count as unsatisfied.
	Lost int
	// WastedEnergy is the analytic energy of failed attempts that had
	// started at least one stage — energy the system spent on work that
	// was thrown away.
	WastedEnergy units.Energy
	// FaultMisses counts deadline misses of tasks that suffered at least
	// one failed attempt; CapacityMisses counts misses of untouched
	// tasks (pure queueing). FaultMisses + CapacityMisses equals the
	// run's DeadlineViolations.
	FaultMisses    int
	CapacityMisses int
}

// degWindow is one active degradation interval on a resource.
type degWindow struct {
	from, to units.Duration
	slowdown float64
}

// faultRunner owns all fault state of one engine run: the topology
// transition events, the degraded-state flags recovery consults, the
// per-resource degradation windows, and the event log. Resources are
// identified by their engine arena index throughout (the arena is fully
// built before the runner is wired, so deg never resizes).
type faultRunner struct {
	plan        *FaultPlan
	policy      RecoveryPolicy
	replanner   *core.Replanner
	lay         layout
	stationDown []bool
	deviceGone  []bool
	deg         [][]degWindow // per resource index: degradation windows
	log         []FaultEvent
	stats       FaultStats
	logger      *obs.Logger // mirrors the event log to slog; nil disables
}

// newFaultRunner wires the plan into the engine: it installs degradation
// windows and schedules every topology transition as an engine event.
func newFaultRunner(eng *engine, plan *FaultPlan, m *costmodel.Model, lay layout) *faultRunner {
	fr := &faultRunner{
		plan:        plan,
		policy:      plan.Recovery.withDefaults(),
		replanner:   core.NewReplanner(m),
		lay:         lay,
		stationDown: make([]bool, lay.stations),
		deviceGone:  make([]bool, lay.devices),
		deg:         make([][]degWindow, len(eng.resources)),
		logger:      eng.ins.Logger(),
	}
	eng.flt = fr

	// Overlapping outages of one station merge into one down window, so
	// a repair in the middle of a longer outage cannot resurrect it.
	for s, iv := range mergeOutages(plan.StationOutages, lay.stations) {
		station := s
		for _, w := range iv {
			up := w.to
			eng.scheduleAction(w.from, func(at units.Duration) {
				fr.stats.StationOutages++
				fr.stationDown[station] = true
				fr.replanner.MarkStation(station)
				fr.record(at, "station.down", fmt.Sprintf("station=%d until=%.6fs", station, up.Seconds()))
				for c := costmodel.StWire; c <= costmodel.StCPU; c++ {
					eng.outage(lay.index(c, station), at, fmt.Sprintf("station %d outage", station))
				}
			})
			eng.scheduleAction(up, func(at units.Duration) {
				fr.stationDown[station] = false
				fr.record(at, "station.up", fmt.Sprintf("station=%d", station))
				for c := costmodel.StWire; c <= costmodel.StCPU; c++ {
					eng.repair(lay.index(c, station))
				}
			})
		}
	}

	for _, d := range plan.DeviceDepartures {
		dep := d
		eng.scheduleAction(dep.At, func(at units.Duration) {
			if fr.deviceGone[dep.Device] {
				return // duplicate departure entry
			}
			fr.stats.DeviceDepartures++
			fr.deviceGone[dep.Device] = true
			fr.replanner.MarkDevice(dep.Device)
			fr.record(at, "device.leave", fmt.Sprintf("device=%d", dep.Device))
			for c := costmodel.DevUp; c <= costmodel.DevCPU; c++ {
				eng.outage(lay.index(c, dep.Device), at, fmt.Sprintf("device %d departed", dep.Device))
			}
		})
	}

	for _, g := range plan.LinkDegradations {
		deg := g
		ri := lay.index(costmodel.StWire, deg.Station)
		if deg.Link == LinkWAN {
			ri = lay.index(costmodel.StWAN, deg.Station)
		}
		to := deg.At + deg.Duration
		fr.deg[ri] = append(fr.deg[ri], degWindow{from: deg.At, to: to, slowdown: deg.Slowdown})
		eng.scheduleAction(deg.At, func(at units.Duration) {
			fr.stats.LinkDegradations++
			fr.record(at, "link.degrade", fmt.Sprintf("station=%d link=%s x%g until=%.6fs",
				deg.Station, deg.Link, deg.Slowdown, to.Seconds()))
		})
		eng.scheduleAction(to, func(at units.Duration) {
			fr.record(at, "link.restore", fmt.Sprintf("station=%d link=%s", deg.Station, deg.Link))
		})
	}
	return fr
}

// interval is a half-open [from, to) down window.
type interval struct{ from, to units.Duration }

// mergeOutages merges overlapping outage windows per station and returns
// them sorted, keyed by station.
func mergeOutages(outages []StationOutage, numStations int) map[int][]interval {
	byStation := make(map[int][]interval)
	for _, o := range outages {
		byStation[o.Station] = append(byStation[o.Station], interval{from: o.At, to: o.At + o.Repair})
	}
	for s := 0; s < numStations; s++ {
		iv := byStation[s]
		if len(iv) == 0 {
			continue
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i].from < iv[j].from })
		merged := iv[:1]
		for _, w := range iv[1:] {
			last := &merged[len(merged)-1]
			if w.from <= last.to {
				if w.to > last.to {
					last.to = w.to
				}
				continue
			}
			merged = append(merged, w)
		}
		byStation[s] = merged
	}
	return byStation
}

// record appends one event to the run log and mirrors it to the
// structured logger, so fault injections and every recovery-ladder
// decision (attempt.fail → task.retry → task.reassign → task.lost) are
// observable live, not only in the post-run event log.
func (fr *faultRunner) record(at units.Duration, kind, detail string) {
	fr.log = append(fr.log, FaultEvent{At: at, Kind: kind, Detail: detail})
	if fr.logger.Enabled(obs.LevelDebug) {
		fr.logger.Debug("sim fault event",
			"at_seconds", at.Seconds(),
			"kind", kind,
			"detail", detail)
	}
}

// serviceTime applies the degradation windows covering the stage's start.
func (fr *faultRunner) serviceTime(ri int32, service, now units.Duration) units.Duration {
	factor := 1.0
	for _, w := range fr.deg[ri] {
		if now >= w.from && now < w.to && w.slowdown > factor {
			factor = w.slowdown
		}
	}
	if factor == 1 {
		return service
	}
	return units.Duration(service.Seconds() * factor)
}

// transferTimeout returns the plan's timeout for backhaul resources, zero
// elsewhere.
func (fr *faultRunner) transferTimeout(ri int32) units.Duration {
	if c, _ := fr.lay.at(ri); c == costmodel.StWire || c == costmodel.StWAN {
		return fr.plan.TransferTimeout
	}
	return 0
}

// downReason labels an arrival-on-downed-resource failure.
func (fr *faultRunner) downReason(ri int32) string {
	return fr.lay.name(ri) + " down"
}

// timeoutReason labels a transfer-timeout failure.
func (fr *faultRunner) timeoutReason(ri int32) string {
	return "transfer timeout on " + fr.lay.name(ri)
}

// survivors snapshots the degraded topology for replan-on-survivors.
func (fr *faultRunner) survivorView() (deviceUp func(int) bool, stationUp func(int) bool) {
	return func(i int) bool { return !fr.deviceGone[i] },
		func(s int) bool { return !fr.stationDown[s] }
}

// attempt drives one task's execution under fault injection: it launches
// plan attempts and, when one fails, walks the recovery ladder — retry the
// same placement with capped exponential backoff, then one reassignment to
// the subsystem the cost model picks on the degraded topology (with a
// fresh retry budget), then give the task up as lost.
type attempt struct {
	eng      *engine
	fr       *faultRunner
	m        *costmodel.Model
	res      *Result
	energyOf []units.Energy // dense per-task, shared by all attempts

	t          *task.Task
	tIdx       int32          // dense task-set index
	cost       costmodel.Cost // analytic cost of the launched placement
	release    units.Duration
	placement  costmodel.Subsystem
	retries    int
	reassigned bool
	faulted    bool
}

// launch builds a plan for the current placement and releases it at the
// given time. Each launch refreshes the task's recorded analytic energy so
// the final accounting charges the placement that actually completed.
func (a *attempt) launch(at units.Duration) error {
	st, err := a.m.Stages(a.t, a.placement)
	if err != nil {
		return err
	}
	pi := buildPlan(a.eng, a.fr.lay, &st, a.tIdx)
	a.fr.stats.Attempts++
	a.cost = st.Cost()
	a.energyOf[a.tIdx] = a.cost.Energy
	placement := a.placement
	analytic := a.cost.Time
	p := &a.eng.plans[pi]
	p.onDone = func(finish units.Duration) {
		o := &a.res.Outcomes[a.tIdx]
		o.Placed = true
		o.Subsystem = placement
		o.Release = a.release
		o.Completion = finish
		o.Sojourn = finish - a.release
		o.Analytic = analytic
		o.DeadlineOK = o.Sojourn <= a.t.Deadline
		o.Faulted = a.faulted
	}
	p.onFail = func(failAt units.Duration, reason string) { a.fail(pi, failAt, reason) }
	a.eng.releaseAt(pi, at)
	return nil
}

// fail is the recovery policy: called (once per attempt) when a fault
// voids the running plan. It launches replacement plans, growing the plan
// arena, so the failed plan is addressed by index only.
func (a *attempt) fail(pi int32, at units.Duration, reason string) {
	fr := a.fr
	a.faulted = true
	fr.stats.FailedAttempts++
	if a.eng.plans[pi].anyStarted {
		// The attempt drew real power before dying; charge its full
		// analytic energy as waste.
		fr.stats.WastedEnergy += a.cost.Energy
	}
	fr.record(at, "attempt.fail", fmt.Sprintf("task=%v subsystem=%v reason=%q", a.t.ID, a.placement, reason))

	if a.retries < fr.policy.MaxRetries {
		a.retries++
		fr.stats.Retries++
		next := at + fr.policy.backoff(a.retries)
		fr.record(at, "task.retry", fmt.Sprintf("task=%v retry=%d at=%.6fs", a.t.ID, a.retries, next.Seconds()))
		if a.launch(next) == nil {
			return
		}
	} else if !fr.policy.NoReassign && !a.reassigned {
		deviceUp, stationUp := fr.survivorView()
		// The replanner serves tasks in never-hit clusters from its cached
		// fault-free answer and computes the exact degraded plan otherwise.
		l, err := fr.replanner.Replan(a.t, core.Survivors{
			DeviceUp: deviceUp, StationUp: stationUp, CloudUp: true,
		})
		if err == nil && l != costmodel.SubsystemNone {
			// Reassigning to the same subsystem is allowed on purpose: the
			// cost model saying it is the best *surviving* choice means the
			// failures were transient (a repaired outage, a degradation
			// window), and the fresh retry budget gives it another shot.
			a.reassigned = true
			from := a.placement
			a.placement = l
			a.retries = 0
			fr.stats.Reassignments++
			fr.record(at, "task.reassign", fmt.Sprintf("task=%v from=%v to=%v", a.t.ID, from, l))
			if a.launch(at) == nil {
				return
			}
		}
	}
	fr.stats.Lost++
	fr.record(at, "task.lost", fmt.Sprintf("task=%v subsystem=%v", a.t.ID, a.placement))
}

// recordMetrics publishes the fault/recovery counters.
func (fr *faultRunner) recordMetrics(ins obs.Instruments) {
	ins.Counter("sim.faults.station_outages").Add(int64(fr.stats.StationOutages))
	ins.Counter("sim.faults.device_departures").Add(int64(fr.stats.DeviceDepartures))
	ins.Counter("sim.faults.link_degradations").Add(int64(fr.stats.LinkDegradations))
	ins.Counter("sim.attempts").Add(int64(fr.stats.Attempts))
	ins.Counter("sim.attempts_failed").Add(int64(fr.stats.FailedAttempts))
	ins.Counter("sim.retries").Add(int64(fr.stats.Retries))
	ins.Counter("sim.reassignments").Add(int64(fr.stats.Reassignments))
	ins.Counter("sim.replans.cached").Add(int64(fr.replanner.Cached))
	ins.Counter("sim.replans.exact").Add(int64(fr.replanner.Exact))
	ins.Counter("sim.tasks_lost").Add(int64(fr.stats.Lost))
	ins.Counter("sim.deadline_misses.fault").Add(int64(fr.stats.FaultMisses))
	ins.Counter("sim.deadline_misses.capacity").Add(int64(fr.stats.CapacityMisses))
	ins.Gauge("sim.wasted_energy_joules").Add(fr.stats.WastedEnergy.Joules())
}

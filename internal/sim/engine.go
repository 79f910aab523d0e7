package sim

import (
	"fmt"
	"sort"

	"dsmec/internal/obs"
	"dsmec/internal/stats"
	"dsmec/internal/units"
)

// noIndex marks an absent arena reference (no dependency, no task, ...).
const noIndex = int32(-1)

// stage is one unit of work on one resource. A stage becomes eligible when
// all its dependencies finish; it then queues on its resource and occupies
// one server for its service time.
//
// Stages live in the engine's flat arena and reference their resource,
// plan and successors by int32 arena indices instead of pointers: a
// million-task run keeps its per-stage bookkeeping in a handful of
// contiguous allocations, and arena growth never invalidates a reference.
type stage struct {
	res       int32 // resource arena index
	plan      int32 // plan arena index
	next      [2]int32
	nnext     int8 // used entries of next (plan DAGs fan out at most 2)
	waitingOn int8 // unmet dependency count
	// Fault-injection bookkeeping; untouched (zero) when the engine has
	// no fault runner.
	aborted  bool // killed by an outage; skip its completion
	timedOut bool // completion event is a transfer timeout

	service    units.Duration
	enqueuedAt units.Duration // when the stage became eligible
	finishAt   units.Duration // scheduled completion of the in-service stage
}

// plan is the stage DAG of a single task. Its stages are the contiguous
// arena run [first, first+n) — plans are always built one at a time, so a
// plan's stages are never interleaved with another's. The plan completes
// when its last stage finishes (pending tracks unfinished stages; the DAG
// is connected through the final stage, so the maximum finish time is the
// completion).
type plan struct {
	first   int32
	n       int32
	pending int32
	// task is the dense task-set index the plan executes; noIndex for
	// plans not bound to a task (engine tests). When onDone is nil the
	// engine-level done hook receives the completion, so the fault-free
	// path needs no per-task closure at all.
	task   int32
	finish units.Duration
	onDone func(finish units.Duration)

	// Fault-injection state; zero when fault injection is disabled.
	failed     bool // a stage failed; the whole attempt is void
	anyStarted bool // at least one stage occupied a server
	onFail     func(at units.Duration, reason string)
}

// newPlan appends an empty plan bound to the given task index (noIndex
// for none) and returns its arena index.
func (e *engine) newPlan(taskIdx int32) int32 {
	pi := int32(len(e.plans))
	e.plans = append(e.plans, plan{first: int32(len(e.stages)), task: taskIdx})
	return pi
}

// addStage appends a stage to plan pi depending on up to two stages
// (noIndex entries are skipped; two noIndex make a root). pi must be the
// most recently created plan, which keeps every plan's stages contiguous
// in the arena.
func (e *engine) addStage(pi, res int32, service units.Duration, d1, d2 int32) int32 {
	si := int32(len(e.stages))
	deps := int8(0)
	for _, d := range [2]int32{d1, d2} {
		if d == noIndex {
			continue
		}
		dep := &e.stages[d]
		if dep.nnext == int8(len(dep.next)) {
			panic(fmt.Sprintf("sim: stage %d exceeds fan-out %d", d, len(dep.next)))
		}
		dep.next[dep.nnext] = si
		dep.nnext++
		deps++
	}
	e.stages = append(e.stages, stage{res: res, plan: pi, service: service, waitingOn: deps})
	e.plans[pi].n++
	return si
}

// resource is a k-server FIFO queue. Besides serving stages it keeps the
// accounting the observability layer exports: total busy time (the
// integral of occupied servers over time), total and per-start queueing
// wait, start count, and the peak queue depth. Resources live in the
// engine's arena and are all created before the run starts.
type resource struct {
	class   string // metric label, e.g. "dev.up", "st.cpu"
	servers int32
	busy    int32
	queue   []int32 // stage arena indices

	busyTime  units.Duration // Σ service time of started stages
	queueWait units.Duration // Σ (start - enqueue) over started stages
	started   int64
	peakQueue int

	// Fault-injection state; only maintained when the engine has a fault
	// runner, so the fault-free path is untouched.
	down    bool    // outage in progress: new arrivals fail
	running []int32 // stages currently occupying servers
	// waits bins per-start queue waits, shared by every resource of the
	// same class. The engine is single-threaded, so plain counts here
	// cost ~nothing per start; recordMetrics merges them into the
	// registry once per run. Nil when metrics are disabled.
	waits *waitBins
}

// waitBins is one class's local queue-wait histogram (obs.TimeBuckets
// binning plus overflow).
type waitBins struct {
	counts []int64
	sum    float64
	n      int64
}

// desSampler accumulates engine-wide queue-depth and busy-server samples
// taken on event boundaries (each distinct simulated timestamp). Like
// waitBins it is plain local state on the single-threaded event loop,
// merged into the registry once per run; nil when metrics are disabled,
// which keeps the disabled hot path free of any sampling work.
type desSampler struct {
	queued      int // stages queued across all resources right now
	busyServers int // servers occupied across all resources right now

	queueBins []int64 // obs.CountBuckets binning plus overflow
	busyBins  []int64
	queueSum  float64
	busySum   float64
	n         int64
}

func newDESSampler() *desSampler {
	return &desSampler{
		queueBins: make([]int64, len(obs.CountBuckets)+1),
		busyBins:  make([]int64, len(obs.CountBuckets)+1),
	}
}

// sample records the current depth and occupancy.
func (d *desSampler) sample() {
	d.queueBins[stats.Bucketize(float64(d.queued), obs.CountBuckets)]++
	d.busyBins[stats.Bucketize(float64(d.busyServers), obs.CountBuckets)]++
	d.queueSum += float64(d.queued)
	d.busySum += float64(d.busyServers)
	d.n++
}

func (w *waitBins) observe(wait units.Duration) {
	// Uncontended starts wait exactly zero; skip the bucket search for
	// them — they land in the first bucket.
	idx := 0
	if wait > 0 {
		idx = stats.Bucketize(wait.Seconds(), obs.TimeBuckets)
	}
	w.counts[idx]++
	w.sum += wait.Seconds()
	w.n++
}

// enqueue adds an eligible stage; it starts immediately if a server is
// free. Under fault injection, arriving at a downed resource voids the
// attempt, and stages of already-failed attempts are dropped.
func (e *engine) enqueue(ri, si int32) {
	r := &e.resources[ri]
	if e.flt != nil {
		pi := e.stages[si].plan
		if e.plans[pi].failed {
			return
		}
		if r.down {
			e.failPlan(pi, e.now, e.flt.downReason(ri))
			return
		}
	}
	s := &e.stages[si]
	s.enqueuedAt = e.now
	if r.busy < r.servers {
		e.start(ri, si)
		return
	}
	r.queue = append(r.queue, si)
	if len(r.queue) > r.peakQueue {
		r.peakQueue = len(r.queue)
	}
	if e.smp != nil {
		e.smp.queued++
	}
}

func (e *engine) start(ri, si int32) {
	r := &e.resources[ri]
	s := &e.stages[si]
	now := e.now
	svc := s.service
	if flt := e.flt; flt != nil {
		svc = flt.serviceTime(ri, svc, now)
		e.plans[s.plan].anyStarted = true
		r.running = append(r.running, si)
		if timeout := flt.transferTimeout(ri); timeout > 0 && svc > timeout {
			// The transfer stalls: it holds the server until the timeout
			// fires, then the attempt fails.
			s.timedOut = true
			svc = timeout
		}
		s.finishAt = now + svc
	}
	r.busy++
	r.started++
	r.busyTime += svc
	wait := now - s.enqueuedAt
	r.queueWait += wait
	if r.waits != nil {
		r.waits.observe(wait)
	}
	if e.smp != nil {
		e.smp.busyServers++
	}
	e.events.push(event{at: now + svc, seq: e.seq, kind: evStage, idx: si})
	e.seq++
}

// finishRes releases a server on the resource and starts the next queued
// stage (skipping stages whose attempt already failed, under fault
// injection).
func (e *engine) finishRes(ri int32) {
	r := &e.resources[ri]
	r.busy--
	if e.smp != nil {
		e.smp.busyServers--
	}
	for len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		if e.smp != nil {
			e.smp.queued--
		}
		if e.flt != nil && e.plans[e.stages[next].plan].failed {
			continue
		}
		e.start(ri, next)
		return
	}
}

// dropRunning forgets a stage that finished or aborted; only called when
// fault injection is active.
func (r *resource) dropRunning(si int32) {
	for i, st := range r.running {
		if st == si {
			r.running = append(r.running[:i], r.running[i+1:]...)
			return
		}
	}
}

// outage takes the resource down: every stage in service or queued fails
// its attempt, and new arrivals fail until repair. The resource arena is
// stable during the run, so r stays valid across the recovery callbacks
// the plan failures trigger (which may grow the stage and plan arenas —
// stages are therefore re-fetched by index, never held).
func (e *engine) outage(ri int32, now units.Duration, reason string) {
	r := &e.resources[ri]
	r.down = true
	if e.smp != nil {
		e.smp.busyServers -= int(r.busy)
		e.smp.queued -= len(r.queue)
	}
	for i := 0; i < len(r.running); i++ {
		si := r.running[i]
		s := &e.stages[si]
		s.aborted = true
		// The work performed after `now` never happens; give the busy
		// accounting back.
		if s.finishAt > now {
			r.busyTime -= s.finishAt - now
		}
		pi := s.plan
		e.failPlan(pi, now, reason)
	}
	r.running = r.running[:0]
	r.busy = 0
	for i := 0; i < len(r.queue); i++ {
		e.failPlan(e.stages[r.queue[i]].plan, now, reason)
	}
	r.queue = r.queue[:0]
}

// repair brings the resource back; the outage drained its queue.
func (e *engine) repair(ri int32) { e.resources[ri].down = false }

// failPlan voids an attempt exactly once: remaining stages are skipped as
// they surface, and the recovery policy decides what happens next. The
// recovery callback may build new plans, growing the arenas; callers must
// not hold stage/plan pointers across this call.
func (e *engine) failPlan(pi int32, at units.Duration, reason string) {
	p := &e.plans[pi]
	if p.failed {
		return
	}
	p.failed = true
	if cb := p.onFail; cb != nil {
		cb(at, reason)
	}
}

// Event kinds: a stage completion, a timed plan release, or a
// fault-injection action.
const (
	evStage = uint8(iota)
	evPlan
	evAction
)

// event is one scheduled occurrence. It carries no pointers: the payload
// is an arena index resolved by kind, so a 10M-task run's event heaps are
// flat arrays the collector never scans.
type event struct {
	at   units.Duration
	seq  int64 // global FIFO tie-break for identical times
	kind uint8
	idx  int32
}

// eventHeap orders events by time, then insertion order. The sift
// operations are hand-rolled rather than delegated to container/heap:
// heap.Push boxes every event into an interface, which allocates on each
// schedule and would keep the disabled-observability hot path from being
// allocation-free in steady state.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	// Sift up.
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	// Sift down.
	for i := 0; ; {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && s.less(right, left) {
			child = right
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	*h = s
	return top
}

// engine drives the event loop: one heap ordered by (time, seq) holds
// every pending event, and seq is unique, so the processing order is a
// total order fixed by the input.
type engine struct {
	now        units.Duration
	seq        int64
	dispatched int64
	events     eventHeap
	stages     []stage
	plans      []plan
	actions    []func(at units.Duration)
	resources  []resource
	waits      map[string]*waitBins // per class; nil when disabled
	smp        *desSampler          // event-boundary sampling; nil when disabled
	ins        obs.Instruments
	flt        *faultRunner // nil: fault injection disabled, path untouched
	// done receives completions of plans with no onDone closure; the
	// fault-free simulator installs one engine-level hook instead of a
	// closure per task.
	done func(pi int32, finish units.Duration)
}

// reserve sizes the plan, stage, and resource arenas for a run whose
// counts are known up front. Exact capacities keep the builder free of
// append-doubling — at scale the repeated grow-and-copy of the stage
// arena dominates the run's allocations. Arenas still grow normally past
// the reservation (fault recovery builds replacement plans mid-run).
func (e *engine) reserve(nplans, nstages, nresources int) {
	if n := len(e.plans) + nplans; cap(e.plans) < n {
		plans := make([]plan, len(e.plans), n)
		copy(plans, e.plans)
		e.plans = plans
	}
	if n := len(e.stages) + nstages; cap(e.stages) < n {
		stages := make([]stage, len(e.stages), n)
		copy(stages, e.stages)
		e.stages = stages
	}
	if n := len(e.resources) + nresources; cap(e.resources) < n {
		resources := make([]resource, len(e.resources), n)
		copy(resources, e.resources)
		e.resources = resources
	}
}

// newResource registers a k-server resource with the engine under a
// metric class label. All resources must be created before the run
// starts; the arena never grows mid-run, so *resource pointers taken
// during dispatch stay valid.
func (e *engine) newResource(servers int, class string) int32 {
	r := resource{servers: int32(servers), class: class}
	if e.ins.Registry() != nil {
		wb := e.waits[class]
		if wb == nil {
			wb = &waitBins{counts: make([]int64, len(obs.TimeBuckets)+1)}
			if e.waits == nil {
				e.waits = make(map[string]*waitBins)
			}
			e.waits[class] = wb
		}
		r.waits = wb
		if e.smp == nil {
			e.smp = newDESSampler()
		}
	}
	e.resources = append(e.resources, r)
	return int32(len(e.resources) - 1)
}

// scheduleAction arms a fault-injection action (outage, repair, churn,
// degradation window edge) as a first-class event.
func (e *engine) scheduleAction(at units.Duration, act func(at units.Duration)) {
	e.actions = append(e.actions, act)
	e.events.push(event{at: at, seq: e.seq, kind: evAction, idx: int32(len(e.actions) - 1)})
	e.seq++
}

// release submits a plan immediately: all root stages become eligible.
func (e *engine) release(pi int32) {
	p := &e.plans[pi]
	p.pending = p.n
	first, n := p.first, p.n
	for si := first; si < first+n; si++ {
		s := &e.stages[si]
		if s.waitingOn == 0 {
			e.enqueue(s.res, si)
		}
	}
	if n == 0 {
		// Degenerate empty plan.
		e.planDone(pi, e.now)
	}
}

// planDone routes a completion to the plan's closure or the engine hook.
func (e *engine) planDone(pi int32, finish units.Duration) {
	if cb := e.plans[pi].onDone; cb != nil {
		cb(finish)
		return
	}
	if e.done != nil {
		e.done(pi, finish)
	}
}

// releaseAt submits a plan at the given simulated time (immediately when
// the time is not in the future).
func (e *engine) releaseAt(pi int32, at units.Duration) {
	if at <= e.now {
		e.release(pi)
		return
	}
	e.events.push(event{at: at, seq: e.seq, kind: evPlan, idx: pi})
	e.seq++
}

// run processes events until the heap drains. Callbacks fired during
// dispatch (recovery ladders) may grow the stage/plan arenas, so the loop
// reads everything it needs from a stage into locals before any callback
// and re-fetches by index afterwards.
func (e *engine) run() {
	for len(e.events) > 0 {
		ev := e.events.pop()
		if e.smp != nil && ev.at != e.now {
			// Event boundary: simulated time is about to advance, so the
			// current depth/occupancy held for a nonzero interval.
			e.smp.sample()
		}
		e.now = ev.at
		e.dispatched++
		switch ev.kind {
		case evAction:
			e.actions[ev.idx](e.now)
			continue
		case evPlan:
			e.release(ev.idx)
			continue
		}
		si := ev.idx
		s := &e.stages[si]
		ri := s.res
		pi := s.plan
		timedOut := s.timedOut
		nnext := s.nnext
		next := s.next
		if e.flt != nil {
			// An outage already reclaimed the server and voided the
			// attempt; the stale completion is a no-op.
			if s.aborted {
				continue
			}
			e.resources[ri].dropRunning(si)
			e.finishRes(ri)
			if timedOut {
				e.failPlan(pi, e.now, e.flt.timeoutReason(ri))
				continue
			}
			if e.plans[pi].failed {
				// A sibling stage failed while this one was in service;
				// its work completes but leads nowhere.
				continue
			}
		} else {
			e.finishRes(ri)
		}

		p := &e.plans[pi]
		p.pending--
		if e.now > p.finish {
			p.finish = e.now
		}
		if p.pending == 0 {
			e.planDone(pi, p.finish)
		}
		for j := int8(0); j < nnext; j++ {
			ni := next[j]
			n := &e.stages[ni]
			n.waitingOn--
			if n.waitingOn == 0 {
				e.enqueue(n.res, ni)
			}
		}
	}
}

// recordMetrics publishes the run's engine-level accounting: events
// dispatched, and per-class start counts, busy time, queueing wait, and
// peak queue depth, plus a per-resource busy-time distribution.
func (e *engine) recordMetrics() {
	reg := e.ins.Registry()
	if reg == nil {
		return
	}
	reg.Counter("sim.events").Add(e.dispatched)

	type agg struct {
		started   int64
		busy      units.Duration
		wait      units.Duration
		peakQueue int
		servers   int
	}
	byClass := make(map[string]*agg)
	busyHist := reg.Histogram("sim.busy_seconds_per_resource", obs.TimeBuckets)
	for i := range e.resources {
		r := &e.resources[i]
		a := byClass[r.class]
		if a == nil {
			a = &agg{}
			byClass[r.class] = a
		}
		a.started += r.started
		a.busy += r.busyTime
		a.wait += r.queueWait
		a.servers += int(r.servers)
		if r.peakQueue > a.peakQueue {
			a.peakQueue = r.peakQueue
		}
		if r.started > 0 {
			busyHist.Observe(r.busyTime.Seconds())
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		a := byClass[c]
		reg.Counter("sim.starts." + c).Add(a.started)
		reg.Gauge("sim.busy_seconds." + c).Add(a.busy.Seconds())
		reg.Gauge("sim.queue_wait_seconds_total." + c).Add(a.wait.Seconds())
		reg.Gauge("sim.queue_peak." + c).SetMax(float64(a.peakQueue))
		// Utilization over the run horizon (the last event time): busy
		// server-seconds over available server-seconds. SetMax keeps the
		// most loaded run when many runs share a registry.
		if a.servers > 0 && e.now > 0 {
			util := a.busy.Seconds() / (float64(a.servers) * e.now.Seconds())
			reg.Gauge("sim.utilization." + c).SetMax(util)
		}
		if wb := e.waits[c]; wb != nil {
			_ = reg.Histogram("sim.queue_wait_seconds."+c, obs.TimeBuckets).Merge(stats.HistogramCounts{
				Bounds: obs.TimeBuckets,
				Counts: wb.counts,
				Count:  wb.n,
				Sum:    wb.sum,
			})
		}
	}
	if e.smp != nil && e.smp.n > 0 {
		_ = reg.Histogram("sim.queue_depth", obs.CountBuckets).Merge(stats.HistogramCounts{
			Bounds: obs.CountBuckets,
			Counts: e.smp.queueBins,
			Count:  e.smp.n,
			Sum:    e.smp.queueSum,
		})
		_ = reg.Histogram("sim.busy_servers", obs.CountBuckets).Merge(stats.HistogramCounts{
			Bounds: obs.CountBuckets,
			Counts: e.smp.busyBins,
			Count:  e.smp.n,
			Sum:    e.smp.busySum,
		})
	}
}

package sim

import (
	"testing"

	"dsmec/internal/obs"
	"dsmec/internal/units"
)

// TestEngineResourceAccounting runs a fully hand-computable two-resource
// scenario and asserts the engine's accounting exactly.
//
// Two plans, both released at t=0, each doing 10s on r1 (1 server) then
// 5s on r2 (1 server):
//
//	r1: A runs 0–10, B queues 10s and runs 10–20
//	r2: A runs 10–15, B runs 20–25 (no contention)
//
// So r1 accumulates 20s busy and 10s of queue wait with peak queue depth
// 1; r2 accumulates 10s busy and no wait; A completes at 15, B at 25.
func TestEngineResourceAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	eng := &engine{ins: obs.Instruments{Metrics: reg}}
	r1 := eng.newResource(1, "r1")
	r2 := eng.newResource(1, "r2")

	var completions []units.Duration
	for i := 0; i < 2; i++ {
		pi := eng.newPlan(noIndex)
		first := eng.addStage(pi, r1, 10*units.Second, noIndex, noIndex)
		eng.addStage(pi, r2, 5*units.Second, first, noIndex)
		eng.plans[pi].onDone = func(finish units.Duration) {
			completions = append(completions, finish)
		}
		eng.releaseAt(pi, 0)
	}
	eng.run()

	if len(completions) != 2 {
		t.Fatalf("got %d completions, want 2", len(completions))
	}
	if completions[0] != 15*units.Second || completions[1] != 25*units.Second {
		t.Errorf("completions = %v, want [15s 25s]", completions)
	}

	// r1: both stages start there, the second after waiting out the first.
	res1 := &eng.resources[r1]
	if got := res1.busyTime; got != 20*units.Second {
		t.Errorf("r1 busy = %v, want 20s", got)
	}
	if got := res1.queueWait; got != 10*units.Second {
		t.Errorf("r1 queue wait = %v, want 10s", got)
	}
	if res1.started != 2 {
		t.Errorf("r1 started = %d, want 2", res1.started)
	}
	if res1.peakQueue != 1 {
		t.Errorf("r1 peak queue = %d, want 1", res1.peakQueue)
	}

	// r2: stages arrive 10s apart, each 5s long — never contended.
	res2 := &eng.resources[r2]
	if got := res2.busyTime; got != 10*units.Second {
		t.Errorf("r2 busy = %v, want 10s", got)
	}
	if got := res2.queueWait; got != 0 {
		t.Errorf("r2 queue wait = %v, want 0", got)
	}
	if res2.started != 2 {
		t.Errorf("r2 started = %d, want 2", res2.started)
	}
	if res2.peakQueue != 0 {
		t.Errorf("r2 peak queue = %d, want 0", res2.peakQueue)
	}

	// Four stage completions, no timed releases (t=0 is immediate).
	if eng.dispatched != 4 {
		t.Errorf("dispatched = %d, want 4", eng.dispatched)
	}

	// The exported metrics must agree with the internal accounting.
	eng.recordMetrics()
	s := reg.Snapshot()
	if got := s.Counters["sim.events"]; got != 4 {
		t.Errorf("sim.events = %d, want 4", got)
	}
	if got := s.Counters["sim.starts.r1"]; got != 2 {
		t.Errorf("sim.starts.r1 = %d, want 2", got)
	}
	if got := s.Gauges["sim.busy_seconds.r1"]; got != 20 {
		t.Errorf("sim.busy_seconds.r1 = %g, want 20", got)
	}
	if got := s.Gauges["sim.queue_wait_seconds_total.r1"]; got != 10 {
		t.Errorf("sim.queue_wait_seconds_total.r1 = %g, want 10", got)
	}
	if got := s.Gauges["sim.queue_peak.r1"]; got != 1 {
		t.Errorf("sim.queue_peak.r1 = %g, want 1", got)
	}
	if got := s.Gauges["sim.busy_seconds.r2"]; got != 10 {
		t.Errorf("sim.busy_seconds.r2 = %g, want 10", got)
	}
	if got := s.Gauges["sim.queue_wait_seconds_total.r2"]; got != 0 {
		t.Errorf("sim.queue_wait_seconds_total.r2 = %g, want 0", got)
	}
	// Per-class wait histogram: r1 saw waits {0s, 10s}, r2 saw {0s, 0s}.
	h1 := s.Histograms["sim.queue_wait_seconds.r1"]
	if h1.Count != 2 || h1.Sum != 10 {
		t.Errorf("r1 wait histogram count/sum = %d/%g, want 2/10", h1.Count, h1.Sum)
	}
	h2 := s.Histograms["sim.queue_wait_seconds.r2"]
	if h2.Count != 2 || h2.Sum != 0 {
		t.Errorf("r2 wait histogram count/sum = %d/%g, want 2/0", h2.Count, h2.Sum)
	}
}

// TestEngineTimedRelease checks that a plan released in the future holds
// until its release event fires and its wait accounting starts at the
// release, not at the build.
func TestEngineTimedRelease(t *testing.T) {
	eng := &engine{}
	r := eng.newResource(1, "r")

	var done units.Duration
	pi := eng.newPlan(noIndex)
	eng.addStage(pi, r, 3*units.Second, noIndex, noIndex)
	eng.plans[pi].onDone = func(finish units.Duration) { done = finish }
	eng.releaseAt(pi, 7*units.Second)
	eng.run()

	res := &eng.resources[r]
	if done != 10*units.Second {
		t.Errorf("completion = %v, want 10s", done)
	}
	if res.queueWait != 0 {
		t.Errorf("queue wait = %v, want 0 (stage started at release)", res.queueWait)
	}
	if res.busyTime != 3*units.Second {
		t.Errorf("busy = %v, want 3s", res.busyTime)
	}
	// One release event plus one completion event.
	if eng.dispatched != 2 {
		t.Errorf("dispatched = %d, want 2", eng.dispatched)
	}
}

// TestEngineDisabledMetrics confirms the engine runs identically with no
// registry: the accounting fields still fill in, nothing panics.
func TestEngineDisabledMetrics(t *testing.T) {
	eng := &engine{}
	r := eng.newResource(2, "r")
	for i := 0; i < 3; i++ {
		pi := eng.newPlan(noIndex)
		eng.addStage(pi, r, units.Second, noIndex, noIndex)
		eng.release(pi)
	}
	eng.run()
	res := &eng.resources[r]
	if res.started != 3 || res.busyTime != 3*units.Second {
		t.Errorf("started/busy = %d/%v, want 3/3s", res.started, res.busyTime)
	}
	if res.peakQueue != 1 {
		t.Errorf("peak queue = %d, want 1 (third stage queued behind two servers)", res.peakQueue)
	}
	eng.recordMetrics() // nil registry: must be a no-op
}

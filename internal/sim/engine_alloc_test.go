package sim

import (
	"testing"

	"dsmec/internal/units"
)

// hotLoopEngine builds a minimal steady-state workload: one single-server
// resource and a two-stage chain, with observability disabled (zero
// Instruments, so no wait bins, no sampler, no fault runner). reset rewinds
// the plan's stages so the same release/run cycle can repeat without
// rebuilding (release itself resets the pending count).
func hotLoopEngine() (e *engine, pi int32, reset func()) {
	e = &engine{}
	r := e.newResource(1, "dev.cpu")
	pi = e.newPlan(noIndex)
	a := e.addStage(pi, r, units.Duration(3), noIndex, noIndex)
	b := e.addStage(pi, r, units.Duration(5), a, noIndex)
	reset = func() {
		e.stages[a].waitingOn = 0
		e.stages[b].waitingOn = 1
	}
	return e, pi, reset
}

// TestDisabledObsZeroAllocHotPath pins the observability satellite's bar:
// with nil logger and nil registry the engine's release/enqueue/start/
// finish/dispatch cycle performs no allocations in steady state. The first
// cycle is run outside the measurement to let the event heap reach
// capacity, mirroring a long run where the heap was sized by early events.
func TestDisabledObsZeroAllocHotPath(t *testing.T) {
	e, pi, reset := hotLoopEngine()
	e.release(pi)
	e.run()

	allocs := testing.AllocsPerRun(1000, func() {
		reset()
		e.release(pi)
		e.run()
	})
	if allocs != 0 {
		t.Errorf("disabled-obs engine hot loop allocates %.1f per cycle, want 0", allocs)
	}
}

// BenchmarkObsDisabledEngineHotLoop reports the disabled-observability
// engine cycle for `make bench-obs` / `make bench-smoke`; the CI perf gate
// watches its allocs/op and B/op, which must stay at zero.
func BenchmarkObsDisabledEngineHotLoop(b *testing.B) {
	e, pi, reset := hotLoopEngine()
	e.release(pi)
	e.run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reset()
		e.release(pi)
		e.run()
	}
}

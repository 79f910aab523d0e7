package main

import (
	"fmt"
	"math"
	"strings"
)

// endToEndNames are the metrics a -trace 0 run reports: what a user of
// either path sees. The p99s of mutations and solves are per-layer metrics
// instead: across ten seeds their quartile distance reached 0.47–0.55 and
// 0.35–0.48 of the median, beyond any bound a later change could be held
// to.
var endToEndNames = []string{
	"setup_s", "pass_s", "peak_rss_mb", "mecd_rss_mb",
	"energy_j", "cancel_ratio", "miss_ratio",
	"mutate_p50_ms", "solve_p50_ms", "read_p50_ms",
}

// layerNames are the metrics a -trace 1 run reports, one layer at a time.
var layerNames = []string{
	"scenarioio.decode_s", "scenarioio.doc_mb", "scenarioio.alloc_mb",

	"core.lphta_s", "core.lphta.clusters", "core.lphta.cluster_busy_s", "core.lphta.parallel_eff",
	"core.lphta.build_s", "core.lphta.round_s", "core.lphta.repair_s", "core.lphta.unattributed_s",
	"core.lphta.alloc_mb", "core.lphta.deadline_repairs", "core.lphta.migrations", "core.lphta.cancellations",

	"lp.solve_busy_s", "lp.solves", "lp.fallbacks", "lp.pivots", "lp.pivots_per_solve", "lp.refactorizations",

	"lp.resolves", "lp.resolves_warm_ratio", "lp.resolves_cold", "lp.cold_fallbacks", "lp.resolve_busy_s",
	"lp.pivots_per_resolve", "lp.dual_pivots", "core.inc.compactions", "core.inc.lp_fallbacks", "core.round_s", "core.repair_s",

	"sim.replay_s", "sim.events", "sim.events_per_s", "sim.alloc_mb",

	"core.check_s", "core.evaluate_s",

	"mecd.mutate_p99_ms", "mecd.solve_p99_ms", "mecd.arrive_p50_ms", "mecd.arrive_p99_ms", "mecd.depart_p50_ms", "mecd.depart_p99_ms", "mecd.device_p50_ms",
	"mecd.solves", "mecd.shards_per_solve", "mecd.solve_busy_s", "mecd.solve_other_s",
	"mecd.mutate_overlap_share", "mecd.mutate_overlap_p99_ms", "mecd.mutate_clear_p99_ms",
	"mecd.alloc_mb", "mecd.gc_cycles", "mecd.gc_pause_s",

	"runtime.alloc_mb", "runtime.gc_cycles", "runtime.gc_pause_s",

	"gen.sent", "gen.late_p99_ms", "gen.late_max_ms",

	"unattributed_s", "trace_overhead",
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_j"):
		return "J"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"),
		strings.HasSuffix(name, "_eff"), strings.HasSuffix(name, "_overhead"), name == "trace_overhead":
		return "ratio"
	default:
		return "count"
	}
}

// latencySamples are the service phase's latencies in ms, from each
// request's intended send time.
type latencySamples struct {
	byKind   [len(opNames)][]float64
	mutate   []float64 // arrivals, departures, leaves and joins
	overlap  []float64 // mutations sent while a solve or read was in flight
	clear    []float64 // the other mutations
	late     []float64 // generator lag per request
	solveSum float64   // seconds, over answered solves
}

func latencies(ops []op, results []opResult) *latencySamples {
	s := &latencySamples{}
	for i := range ops {
		o, r := &ops[i], &results[i]
		ms := r.latency(o)
		s.byKind[o.kind] = append(s.byKind[o.kind], ms)
		s.late = append(s.late, r.late.Seconds()*1e3)
		if o.kind.mutation() {
			s.mutate = append(s.mutate, ms)
			if r.overlap {
				s.overlap = append(s.overlap, ms)
			} else {
				s.clear = append(s.clear, ms)
			}
		} else if o.kind == opSolve && !r.failed(o) {
			s.solveSum += ms / 1e3
		}
	}
	return s
}

// metricSet builds a result's metrics, refusing names outside its list and
// reporting the first refused percentile.
type metricSet struct {
	names map[string]bool
	m     map[string]metric
	err   error
}

func newMetricSet(names []string) *metricSet {
	s := &metricSet{names: map[string]bool{}, m: map[string]metric{}}
	for _, n := range names {
		s.names[n] = true
	}
	return s
}

func (s *metricSet) set(name string, v float64) {
	if !s.names[name] {
		panic("e2ebench: metric " + name + " is not in the reported list")
	}
	if math.IsInf(v, 1) {
		// A latency percentile that fell on a failed request: the run is
		// already marked incorrect, and JSON has no infinity.
		v = math.MaxFloat64
	}
	s.m[name] = metric{Value: v, Unit: unitOf(name)}
}

func (s *metricSet) pct(name string, xs []float64, perMille int) {
	v, err := percentile(xs, perMille)
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("%s: %w", name, err)
	}
	s.set(name, v)
}

func (s *metricSet) done() (map[string]metric, error) {
	if s.err != nil {
		return nil, s.err
	}
	for n := range s.names {
		if _, ok := s.m[n]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
	}
	return s.m, nil
}

func endToEndMetrics(setupS []float64, plain []*passReport, mecdRSS float64, lat *latencySamples) (map[string]metric, error) {
	s := newMetricSet(endToEndNames)
	var pass, rss []float64
	for _, p := range plain {
		pass = append(pass, p.PassS)
		rss = append(rss, p.RSSMB)
	}
	// Every pass planned the same document to the same digest, so the
	// output quality is the first pass's.
	first := plain[0]
	s.set("setup_s", median(setupS))
	s.set("pass_s", median(pass))
	s.set("peak_rss_mb", median(rss))
	s.set("mecd_rss_mb", mecdRSS)
	s.set("energy_j", first.EnergyJ)
	s.set("cancel_ratio", ratio(float64(first.Cancelled), float64(first.Tasks)))
	s.set("miss_ratio", ratio(float64(first.Misses), float64(first.Placed)))
	s.pct("mutate_p50_ms", lat.mutate, 500)
	s.pct("solve_p50_ms", lat.byKind[opSolve], 500)
	s.pct("read_p50_ms", lat.byKind[opRead], 500)
	return s.done()
}

func layerMetrics(plain, traced []*passReport, before, after daemonSnapshot, ops []op, lat *latencySamples) (map[string]metric, error) {
	s := newMetricSet(layerNames)

	// Traced passes: the median of each figure.
	var tracedS, plainS []float64
	for _, p := range traced {
		tracedS = append(tracedS, p.PassS)
	}
	for _, p := range plain {
		plainS = append(plainS, p.PassS)
	}
	for name := range traced[0].Layers {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, p.Layers[name])
		}
		s.set(name, median(xs))
	}
	s.set("trace_overhead", median(tracedS)/median(plainS)-1)

	// The daemon over the service phase.
	dc := func(name string) float64 {
		return float64(after.reg.Counters[name] - before.reg.Counters[name])
	}
	dh := func(name string) (count, sum float64) {
		a, b := after.reg.Histograms[name], before.reg.Histograms[name]
		return float64(a.Count - b.Count), a.Sum - b.Sum
	}
	resolves := dc("lp.resolves")
	s.set("lp.resolves", resolves)
	s.set("lp.resolves_warm_ratio", ratio(dc("lp.resolves.warm"), resolves))
	s.set("lp.resolves_cold", dc("lp.resolves.cold"))
	s.set("lp.cold_fallbacks", dc("lp.resolves.cold_fallback"))
	_, busy := dh("lp.resolve_seconds")
	s.set("lp.resolve_busy_s", busy)
	n, pivots := dh("lp.resolve_pivots")
	s.set("lp.pivots_per_resolve", ratio(pivots, n))
	s.set("lp.dual_pivots", dc("lp.dual_pivots"))
	s.set("core.inc.compactions", dc("lphta.inc.compactions"))
	s.set("core.inc.lp_fallbacks", dc("lphta.lp_fallbacks"))
	_, round := dh("lphta.stage_seconds.round")
	s.set("core.round_s", round)
	_, repair := dh("lphta.stage_seconds.repair")
	s.set("core.repair_s", repair)

	s.pct("mecd.mutate_p99_ms", lat.mutate, 990)
	s.pct("mecd.solve_p99_ms", lat.byKind[opSolve], 990)
	s.pct("mecd.arrive_p50_ms", lat.byKind[opArrive], 500)
	s.pct("mecd.arrive_p99_ms", lat.byKind[opArrive], 990)
	s.pct("mecd.depart_p50_ms", lat.byKind[opDepart], 500)
	s.pct("mecd.depart_p99_ms", lat.byKind[opDepart], 990)
	s.pct("mecd.device_p50_ms", append(append([]float64(nil), lat.byKind[opLeave]...), lat.byKind[opJoin]...), 500)
	solves := dc("mecd.solves")
	s.set("mecd.solves", solves)
	s.set("mecd.shards_per_solve", ratio(dc("mecd.solved_shards"), solves))
	// mecd.solve_seconds also times the re-solves reads trigger, one per
	// 50 solves at the default traffic.
	_, solveBusy := dh("mecd.solve_seconds")
	s.set("mecd.solve_busy_s", solveBusy)
	s.set("mecd.solve_other_s", lat.solveSum-solveBusy)
	s.set("mecd.mutate_overlap_share", ratio(float64(len(lat.overlap)), float64(len(lat.mutate))))
	s.pct("mecd.mutate_overlap_p99_ms", lat.overlap, 990)
	s.pct("mecd.mutate_clear_p99_ms", lat.clear, 990)
	am, bm := after.mem.Memstats, before.mem.Memstats
	s.set("mecd.alloc_mb", float64(am.TotalAlloc-bm.TotalAlloc)/1e6)
	s.set("mecd.gc_cycles", float64(am.NumGC-bm.NumGC))
	s.set("mecd.gc_pause_s", float64(am.PauseTotalNs-bm.PauseTotalNs)/1e9)

	s.set("gen.sent", float64(len(ops)))
	s.pct("gen.late_p99_ms", lat.late, 990)
	maxLate := 0.0
	for _, l := range lat.late {
		maxLate = math.Max(maxLate, l)
	}
	s.set("gen.late_max_ms", maxLate)
	return s.done()
}

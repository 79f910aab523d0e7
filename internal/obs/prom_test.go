package obs

import (
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("lp.price_evaluations").Add(42)
	r.Gauge("sim.queue_peak.dev.cpu").Set(3.5)
	h := r.Histogram("lp.solve_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lp_price_evaluations counter\nlp_price_evaluations 42\n",
		"# TYPE sim_queue_peak_dev_cpu gauge\nsim_queue_peak_dev_cpu 3.5\n",
		"# TYPE lp_solve_seconds histogram\n",
		`lp_solve_seconds_bucket{le="0.001"} 1`,
		`lp_solve_seconds_bucket{le="0.01"} 1`,
		`lp_solve_seconds_bucket{le="0.1"} 2`,
		`lp_solve_seconds_bucket{le="+Inf"} 3`,
		"lp_solve_seconds_sum 5.0505\n",
		"lp_solve_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	r.Gauge("z").Set(1)
	var first, second strings.Builder
	if err := WritePrometheus(&first, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&second, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("exposition not deterministic:\n%s\nvs\n%s", first.String(), second.String())
	}
	if !strings.HasPrefix(first.String(), "# TYPE a counter") {
		t.Errorf("counters not sorted:\n%s", first.String())
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"lp.price_evaluations": "lp_price_evaluations",
		"sim.busy-seconds":     "sim_busy_seconds",
		"9lives":               "_9lives",
		"ok_name:sub":          "ok_name:sub",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

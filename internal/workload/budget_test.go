package workload

import (
	"errors"
	"strings"
	"testing"

	"dsmec/internal/obs"
	"dsmec/internal/stats"
)

// TestParseBudgetsRejectsMalformedFiles drives every parsing edge case
// that must surface as a structured *BudgetError (the CLIs map it to exit
// code 2): malformed JSON, empty budget lists, unnamed and unbounded
// budgets, unknown metric names, negative limits, and inverted ranges.
// mecbench and mecwc share this validation, so the edge cases are pinned
// once, here.
func TestParseBudgetsRejectsMalformedFiles(t *testing.T) {
	cases := map[string]struct {
		doc    string
		detail string // substring the error must carry
	}{
		"malformed JSON":  {`{not json`, "malformed JSON"},
		"empty list":      {`{"budgets": []}`, "no budgets"},
		"missing list":    {`{}`, "no budgets"},
		"unnamed budget":  {`{"budgets": [{"max": 1}]}`, "empty metric name"},
		"unbounded":       {`{"budgets": [{"metric": "lp.price_evaluations"}]}`, "neither min nor max"},
		"unknown metric":  {`{"budgets": [{"metric": "no.such.metric", "min": 1}]}`, "unknown metric"},
		"unknown root":    {`{"budgets": [{"metric": "lq.pivots", "max": 1}]}`, "unknown metric"},
		"bare root":       {`{"budgets": [{"metric": "sim", "max": 1}]}`, "unknown metric"},
		"trailing dot":    {`{"budgets": [{"metric": "sim.", "max": 1}]}`, "unknown metric"},
		"negative max":    {`{"budgets": [{"metric": "lp.price_evaluations", "max": -1}]}`, "negative max"},
		"negative min":    {`{"budgets": [{"metric": "goodput", "min": -0.5}]}`, "negative min"},
		"inverted bounds": {`{"budgets": [{"metric": "lp.price_evaluations", "min": 10, "max": 5}]}`, "max 5 < min 10"},
	}
	for name, tc := range cases {
		_, err := ParseBudgets([]byte(tc.doc), "budgets.json")
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Errorf("%s: error %T is not a *BudgetError", name, err)
			continue
		}
		if !strings.Contains(be.Detail, tc.detail) {
			t.Errorf("%s: detail %q does not mention %q", name, be.Detail, tc.detail)
		}
		if be.Path != "budgets.json" {
			t.Errorf("%s: path = %q", name, be.Path)
		}
		var buf strings.Builder
		be.WriteJSON(&buf)
		if !strings.Contains(buf.String(), `"error":"budget_file"`) {
			t.Errorf("%s: structured record missing error kind: %s", name, buf.String())
		}
	}
}

func TestParseBudgetsAcceptsValidFiles(t *testing.T) {
	budgets, err := ParseBudgets([]byte(`{"budgets": [
		{"metric": "lp.price_evaluations", "max": 500000},
		{"metric": "sim.deadline_misses.fault", "max": 3},
		{"metric": "miss_rate.capacity", "max": 0.25},
		{"metric": "goodput", "min": 0.6},
		{"metric": "total_energy_joules", "max": 100},
		{"metric": "alloc_bytes_per_task", "max": 1000000},
		{"metric": "wall_seconds", "max": 120},
		{"metric": "bench.experiment_seconds.count", "min": 1}
	]}`), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(budgets) != 8 {
		t.Errorf("parsed %d budgets, want 8", len(budgets))
	}
}

func TestLoadBudgetsMissingFile(t *testing.T) {
	_, err := LoadBudgets("testdata/definitely-missing.json")
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not a *BudgetError", err)
	}
}

func TestDerivedMetricCatalog(t *testing.T) {
	names := DerivedMetricNames()
	if len(names) == 0 {
		t.Fatal("empty derived catalog")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("catalog not sorted: %q before %q", names[i-1], names[i])
		}
	}
	for _, want := range []string{"miss_rate", "miss_rate.fault", "miss_rate.capacity", "goodput", "total_energy_joules"} {
		if DerivedMetricHelp(want) == "" {
			t.Errorf("catalog missing %q", want)
		}
	}
}

func TestCheckBudgetsViolationRecords(t *testing.T) {
	m := &obs.Manifest{Metrics: obs.Snapshot{
		Counters: map[string]int64{"lp.price_evaluations": 612},
		Gauges:   map[string]float64{"sim.utilization.st.cpu": 0.25},
	}}
	maxPivots, minUtil := 500.0, 0.5
	var out strings.Builder
	vs := CheckBudgets([]Budget{
		{Metric: "lp.price_evaluations", Max: &maxPivots},
		{Metric: "sim.utilization.st.cpu", Min: &minUtil},
		{Metric: "lp.no_such_counter", Min: &minUtil},
	}, ManifestResolver(m), &out)
	if len(vs) != 3 {
		t.Fatalf("got %d violations, want 3:\n%s", len(vs), out.String())
	}
	// The exact JSON shape is load-bearing: CI wrappers parse these lines.
	for _, want := range []string{
		`{"budget":"lp.price_evaluations","kind":"max","limit":500,"actual":612,"margin":112}`,
		`{"budget":"sim.utilization.st.cpu","kind":"min","limit":0.5,"actual":0.25,"margin":0.25}`,
		`{"budget":"lp.no_such_counter","kind":"missing"}`,
	} {
		if !strings.Contains(out.String(), want+"\n") {
			t.Errorf("missing violation line %s in:\n%s", want, out.String())
		}
	}
}

func TestCheckBudgetsPassAndChain(t *testing.T) {
	m := &obs.Manifest{WallSeconds: 1.5, Metrics: obs.Snapshot{
		Counters: map[string]int64{"sim.events": 10},
	}}
	derived := func(name string) (float64, bool) {
		if name == "goodput" {
			return 0.9, true
		}
		return 0, false
	}
	maxWall, minGood, minEvents := 60.0, 0.5, 1.0
	var out strings.Builder
	vs := CheckBudgets([]Budget{
		{Metric: "wall_seconds", Max: &maxWall},
		{Metric: "goodput", Min: &minGood},
		{Metric: "sim.events", Min: &minEvents},
	}, ChainResolvers(derived, ManifestResolver(m)), &out)
	if len(vs) != 0 {
		t.Fatalf("unexpected violations:\n%s", out.String())
	}
	if strings.Count(out.String(), "budget ok") != 3 {
		t.Errorf("expected 3 'budget ok' lines:\n%s", out.String())
	}
}

func TestManifestResolverHistogramSuffixes(t *testing.T) {
	m := &obs.Manifest{Metrics: obs.Snapshot{
		Histograms: map[string]stats.HistogramCounts{
			"bench.experiment_seconds": {Count: 4, Sum: 2.0},
		},
	}}
	r := ManifestResolver(m)
	for name, want := range map[string]float64{
		"bench.experiment_seconds.count": 4,
		"bench.experiment_seconds.sum":   2.0,
		"bench.experiment_seconds.mean":  0.5,
	} {
		got, ok := r(name)
		if !ok || got != want {
			t.Errorf("%s = %g, %v; want %g, true", name, got, ok, want)
		}
	}
	if _, ok := r("bench.experiment_seconds.p95"); ok {
		t.Error("unknown suffix resolved")
	}
}

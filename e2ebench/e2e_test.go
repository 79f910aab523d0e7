package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// run() re-runs itself for a batch pass.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "pass" {
		os.Exit(passMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestOtherSeedPassesChecks runs the whole benchmark, untraced and traced,
// on a small deployment and a seed no recorded run uses: every pass,
// request and output check must succeed and every metric be reported.
func TestOtherSeedPassesChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a real mecd")
	}
	dir := t.TempDir()
	mecd := filepath.Join(dir, "mecd")
	build := exec.Command("go", "build", "-o", mecd, "dsmec/cmd/mecd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building mecd: %v\n%s", err, out)
	}
	for _, traced := range []bool{false, true} {
		cfg := config{
			spec:    workloadSpec{name: "small", devices: 60, stations: 4, tasks: 400},
			seed:    918273,
			seconds: 5,
			trace:   traced,
			// Fast solves, so even a 3 s phase has the 1,000 samples a
			// p99 needs.
			traffic: traffic{arrivalRate: 1000, solveEvery: 2 * time.Millisecond,
				readEvery: 100 * time.Millisecond, churnEvery: 500 * time.Millisecond},
			mecd: mecd,
			self: os.Args[0],
			work: t.TempDir(),
		}
		res, tl, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("trace=%v: %v", traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1000 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		want := endToEndNames
		if traced {
			want = layerNames
		}
		if got := sortedKeys(res.Metrics); !reflect.DeepEqual(got, sorted(want)) {
			t.Errorf("trace=%v: metrics %v, want %v", traced, got, sorted(want))
		}
		if traced {
			path := filepath.Join(dir, "trace.json")
			if err := tl.writeFile(path); err != nil {
				t.Fatal(err)
			}
			var doc struct{ TraceEvents []traceEvent }
			b, err := os.ReadFile(path)
			if err != nil || json.Unmarshal(b, &doc) != nil || len(doc.TraceEvents) < res.Attempted/2 {
				t.Errorf("trace file unreadable or short: %v, %d events", err, len(doc.TraceEvents))
			}
			// Timed calls plus the remainder make up the pass.
			if u := res.Metrics["unattributed_s"].Value; u < 0 || u > 0.1*res.Metrics["core.lphta_s"].Value+0.01 {
				t.Errorf("unattributed_s = %g", u)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and metrics
// in step with what the benchmark reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	for _, list := range []struct {
		json []struct{ Name, Unit string }
		code []string
	}{{doc.EndToEnd, endToEndNames}, {doc.PerLayer, layerNames}} {
		var got []string
		for _, m := range list.json {
			got = append(got, m.Name)
			if m.Unit != unitOf(m.Name) {
				t.Errorf("%s: BENCHMARK.json unit %q, reported %q", m.Name, m.Unit, unitOf(m.Name))
			}
		}
		if !reflect.DeepEqual(got, list.code) {
			t.Errorf("BENCHMARK.json metrics %v, code %v", got, list.code)
		}
	}
}

func sortedKeys(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sorted(xs []string) []string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	return s
}

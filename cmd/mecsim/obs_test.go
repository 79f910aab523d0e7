package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// manifestDoc decodes just the pieces of the run manifest the tests
// assert on.
type manifestDoc struct {
	Tool         string  `json:"tool"`
	Seed         int64   `json:"seed"`
	ScenarioHash string  `json:"scenario_hash"`
	GoVersion    string  `json:"go_version"`
	WallSeconds  float64 `json:"wall_seconds"`
	Metrics      struct {
		Counters   map[string]int64           `json:"counters"`
		Gauges     map[string]float64         `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	} `json:"metrics"`
}

func readManifest(t *testing.T, path string) manifestDoc {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	var m manifestDoc
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	return m
}

func TestMetricsManifest(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "run.json")
	var out strings.Builder
	err := run([]string{"-tasks", "30", "-devices", "10", "-stations", "2",
		"-seed", "9", "-metrics", mpath}, &out)
	if err != nil {
		t.Fatal(err)
	}

	m := readManifest(t, mpath)
	if m.Tool != "mecsim" || m.Seed != 9 {
		t.Errorf("tool/seed = %s/%d, want mecsim/9", m.Tool, m.Seed)
	}
	if m.ScenarioHash == "" || m.GoVersion == "" {
		t.Errorf("missing environment stamps: %+v", m)
	}
	// The deep layers must have recorded through the Instruments chain.
	for _, c := range []string{"lp.solves", "lp.price_evaluations", "lphta.runs", "lphta.tasks", "sim.runs", "sim.events"} {
		if m.Metrics.Counters[c] <= 0 {
			t.Errorf("counter %s = %d, want > 0 (all: %v)", c, m.Metrics.Counters[c], m.Metrics.Counters)
		}
	}
	if m.Metrics.Counters["lphta.tasks"] != 30 {
		t.Errorf("lphta.tasks = %d, want 30", m.Metrics.Counters["lphta.tasks"])
	}
	if _, ok := m.Metrics.Histograms["lp.solve_seconds"]; !ok {
		t.Error("missing lp.solve_seconds histogram")
	}

	// The human-readable summary accompanies the file.
	if !strings.Contains(out.String(), "run manifest:") || !strings.Contains(out.String(), "lp.solves") {
		t.Errorf("summary table missing from output:\n%s", out.String())
	}
}

// TestMetricsReproducible runs the same seed twice and requires identical
// solver and planner counters: the instrumentation must not perturb (or
// be perturbed by) the seeded pipeline.
func TestMetricsReproducible(t *testing.T) {
	dir := t.TempDir()
	counters := make([]map[string]int64, 2)
	for i := range counters {
		mpath := filepath.Join(dir, "run"+string(rune('a'+i))+".json")
		var out strings.Builder
		err := run([]string{"-tasks", "25", "-devices", "10", "-stations", "2",
			"-seed", "4", "-sim=false", "-metrics", mpath}, &out)
		if err != nil {
			t.Fatal(err)
		}
		counters[i] = readManifest(t, mpath).Metrics.Counters
	}
	for name, v := range counters[0] {
		if counters[1][name] != v {
			t.Errorf("counter %s differs across identical runs: %d vs %d", name, v, counters[1][name])
		}
	}
}

func TestTraceOutput(t *testing.T) {
	dir := t.TempDir()
	tpath := filepath.Join(dir, "run.trace.json")
	var out strings.Builder
	err := run([]string{"-tasks", "20", "-devices", "8", "-stations", "2", "-trace", tpath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	// The acceptance spans: LP solve, rounding, and simulation, under the
	// tool's root span.
	for _, want := range []string{"mecsim", "lphta", "lp.solve", "lphta.round", "sim.run", "sim.events"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}

func TestDivisibleMetrics(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "run.json")
	var out strings.Builder
	err := run([]string{"-divisible", "-tasks", "20", "-devices", "8", "-stations", "2",
		"-metrics", mpath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, mpath)
	if m.Metrics.Counters["dta.runs"] != 2 { // GoalWorkload + GoalNumber
		t.Errorf("dta.runs = %d, want 2", m.Metrics.Counters["dta.runs"])
	}
}

func TestScenarioParseError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-load", path}, &out)
	if err == nil {
		t.Fatal("malformed scenario should fail")
	}
	var pe *scenarioParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T(%v) is not a *scenarioParseError", err, err)
	}
	if pe.Path != path || pe.Err == nil {
		t.Errorf("parse error fields = %+v", pe)
	}
}

// TestTrailingBytesIsParseError pins that a valid document followed by
// anything but whitespace is malformed input (exit 2), not a scenario.
func TestTrailingBytesIsParseError(t *testing.T) {
	var doc strings.Builder
	if err := generateScenarioFile(&doc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trailing.json")
	if err := os.WriteFile(path, []byte(doc.String()+"this is not json {]"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-load", path}, &out)
	var pe *scenarioParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T(%v) is not a *scenarioParseError", err, err)
	}
}

// TestMissingFileIsNotParseError pins the error taxonomy: a missing file
// is an I/O error (exit 1), not a parse error (exit 2).
func TestMissingFileIsNotParseError(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-load", "/definitely/not/here.json"}, &out)
	if err == nil {
		t.Fatal("missing file should fail")
	}
	var pe *scenarioParseError
	if errors.As(err, &pe) {
		t.Error("missing file misclassified as a parse error")
	}
}

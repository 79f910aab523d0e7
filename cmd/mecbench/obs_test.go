package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsmec/internal/workload"
)

func writeBudgets(t *testing.T, dir, content string) string {
	t.Helper()
	path := filepath.Join(dir, "budgets.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMetricsCollectedFromExperiments(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "bench.json")
	var out strings.Builder
	err := run([]string{"-experiment", "fig2a", "-trials", "1", "-quick", "-metrics", mpath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Tool    string `json:"tool"`
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Tool != "mecbench" {
		t.Errorf("tool = %q", m.Tool)
	}
	// The experiment harness carries no Instruments; these counters only
	// appear if the global-registry fallback works end to end.
	for _, c := range []string{"bench.experiments", "lp.solves", "lphta.runs"} {
		if m.Metrics.Counters[c] <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, m.Metrics.Counters[c])
		}
	}
}

func TestBudgetCheckPasses(t *testing.T) {
	dir := t.TempDir()
	bpath := writeBudgets(t, dir, `{"budgets": [
		{"metric": "lp.solves", "min": 1},
		{"metric": "lp.price_evaluations", "max": 100000000},
		{"metric": "wall_seconds", "max": 600},
		{"metric": "bench.experiment_seconds.count", "min": 1}
	]}`)
	var out strings.Builder
	err := run([]string{"-experiment", "fig2a", "-trials", "1", "-quick", "-check", bpath}, &out)
	if err != nil {
		t.Fatalf("in-budget run failed: %v\n%s", err, out.String())
	}
	if strings.Count(out.String(), "budget ok") != 4 {
		t.Errorf("expected 4 'budget ok' lines:\n%s", out.String())
	}
}

func TestBudgetCheckFails(t *testing.T) {
	dir := t.TempDir()
	// "lp.no_such_counter" has a known metric root, so it parses but
	// cannot resolve against the run — a "missing" violation, not a
	// parse-time rejection.
	bpath := writeBudgets(t, dir, `{"budgets": [
		{"metric": "lp.solves", "max": 0},
		{"metric": "lp.no_such_counter", "min": 1}
	]}`)
	var out strings.Builder
	err := run([]string{"-experiment", "fig2a", "-trials", "1", "-quick", "-check", bpath}, &out)
	if err == nil {
		t.Fatalf("out-of-budget run succeeded:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "2 budget violation") {
		t.Errorf("error = %v, want 2 violations", err)
	}
	if !strings.Contains(out.String(), "budget FAIL") {
		t.Errorf("violations not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "metric not found") {
		t.Errorf("unknown metric not reported:\n%s", out.String())
	}
	// Each failure also carries a machine-readable record.
	for _, want := range []string{`"kind":"max"`, `"kind":"missing"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("violation JSON %s missing:\n%s", want, out.String())
		}
	}
}

// TestBudgetFileValidation proves malformed budget files fail fast as
// structured *workload.BudgetError values — before any experiment runs —
// which main maps to exit code 2. (The full parsing edge-case matrix
// lives in internal/workload, shared with mecwc.)
func TestBudgetFileValidation(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"malformed":      `{not json`,
		"empty":          `{"budgets": []}`,
		"unnamed":        `{"budgets": [{"max": 1}]}`,
		"unbounded":      `{"budgets": [{"metric": "lp.price_evaluations"}]}`,
		"unknown metric": `{"budgets": [{"metric": "no.such.metric", "min": 1}]}`,
		"negative limit": `{"budgets": [{"metric": "lp.price_evaluations", "max": -1}]}`,
	}
	for name, content := range cases {
		bpath := writeBudgets(t, dir, content)
		var out strings.Builder
		err := run([]string{"-experiment", "fig2a", "-check", bpath}, &out)
		if err == nil {
			t.Errorf("%s budget file accepted", name)
			continue
		}
		var be *workload.BudgetError
		if !errors.As(err, &be) {
			t.Errorf("%s: error %T is not a *workload.BudgetError (would exit 1, want 2)", name, err)
		}
		if strings.Contains(out.String(), "(fig2a in") {
			t.Errorf("%s: experiment ran despite invalid budget file", name)
		}
	}
}

// TestBudgetFailureStillFlushesArtifacts pins the flush ordering: a run
// that fails its budget gate must still leave the -metrics manifest and
// a complete -obs-snapshots stream behind, so CI failures come with
// their evidence.
func TestBudgetFailureStillFlushesArtifacts(t *testing.T) {
	dir := t.TempDir()
	bpath := writeBudgets(t, dir, `{"budgets": [{"metric": "lp.solves", "max": 0}]}`)
	mpath := filepath.Join(dir, "bench.json")
	spath := filepath.Join(dir, "snaps.jsonl")
	var out strings.Builder
	err := run([]string{
		"-experiment", "fig2a", "-trials", "1", "-quick",
		"-metrics", mpath, "-obs-snapshots", spath, "-check", bpath,
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "budget violation") {
		t.Fatalf("err = %v, want a budget violation", err)
	}
	var be *workload.BudgetError
	if errors.As(err, &be) {
		t.Fatalf("violation surfaced as a file error (exit 2); want plain error (exit 1)")
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatalf("metrics manifest missing after failed gate: %v", err)
	}
	if !json.Valid(data) {
		t.Error("metrics manifest is not valid JSON")
	}
	snaps, err := os.ReadFile(spath)
	if err != nil {
		t.Fatalf("snapshot stream missing after failed gate: %v", err)
	}
	// Close writes one final record even when no interval elapsed; every
	// line must be complete JSON (i.e. the stream was flushed, not cut).
	lines := strings.Split(strings.TrimSpace(string(snaps)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("snapshot stream is empty after failed gate")
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Errorf("snapshot line %d is not complete JSON: %q", i, line)
		}
	}
}

func TestBenchTraceOutput(t *testing.T) {
	dir := t.TempDir()
	tpath := filepath.Join(dir, "bench.trace.json")
	var out strings.Builder
	err := run([]string{"-experiment", "fig2a", "-trials", "1", "-quick", "-trace", tpath}, &out)
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
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "experiment:fig2a" {
			found = true
		}
	}
	if !found {
		t.Errorf("trace missing experiment span: %+v", doc.TraceEvents)
	}
}

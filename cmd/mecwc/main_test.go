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

// corpusRoot points tests at the repo's committed corpus; cmd tests run
// in their package directory.
const corpusRoot = "../../workload-checks"

// writeCorpus scaffolds a one-class corpus in a temp dir. files maps
// paths relative to the class directory to contents.
func writeCorpus(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, "tiny", rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const tinyMachine = `{"description": "test class", "devices": 10, "stations": 2, "tasks": 30, "input_kb": 3000}`

// TestCorpusDeterministicAcrossParallelism pins the runner-level
// determinism contract: stdout is byte-identical for any -parallel
// value over the committed corpus.
func TestCorpusDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus run")
	}
	outputs := make([]string, 0, 3)
	for _, n := range []string{"1", "2", "8"} {
		var out strings.Builder
		if err := run([]string{"-root", corpusRoot, "-parallel", n}, &out); err != nil {
			t.Fatalf("-parallel %s: %v\n%s", n, err, out.String())
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] || outputs[0] != outputs[2] {
		t.Error("stdout differs across -parallel values")
	}
	if !strings.Contains(outputs[0], "class ci-smoke") || !strings.Contains(outputs[0], "class edge-1k") {
		t.Errorf("corpus output missing expected classes:\n%s", outputs[0])
	}
}

// TestCommittedCorpusShape pins the acceptance floor of the committed
// corpus: at least two machine classes and six cases overall.
func TestCommittedCorpusShape(t *testing.T) {
	classes, err := discover(corpusRoot, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) < 2 {
		t.Errorf("%d machine classes committed, want >= 2", len(classes))
	}
	cases := 0
	scenarios := 0
	for _, cl := range classes {
		cases += len(cl.Cases)
		for _, c := range cl.Cases {
			if c.Spec.Scenario != "" {
				scenarios++
			}
		}
	}
	if cases < 6 {
		t.Errorf("%d cases committed, want >= 6", cases)
	}
	if scenarios == 0 {
		t.Error("no committed-scenario case; the corpus must exercise the document path")
	}
}

// TestInjectedViolationNamesCase proves a budget violation exits
// non-zero and names the failing case in both the table and the JSONL
// report.
func TestInjectedViolationNamesCase(t *testing.T) {
	root := writeCorpus(t, map[string]string{
		"machine.json":                 tinyMachine,
		"cases/will-fail/case.json":    `{"recipe": "steady-state", "seed": 3}`,
		"cases/will-fail/budgets.json": `{"budgets": [{"metric": "tasks_total", "max": 1}]}`,
		"cases/will-pass/case.json":    `{"recipe": "steady-state", "seed": 3}`,
		"cases/will-pass/budgets.json": `{"budgets": [{"metric": "tasks_total", "min": 1}]}`,
	})
	report := filepath.Join(t.TempDir(), "wc.jsonl")
	var out strings.Builder
	err := run([]string{"-root", root, "-report", report}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 workload-check case(s) failed") {
		t.Fatalf("err = %v, want one failed case\n%s", err, out.String())
	}
	var be *workload.BudgetError
	if errors.As(err, &be) {
		t.Fatal("violation surfaced as a budget-file error (exit 2); want plain failure (exit 1)")
	}
	if !strings.Contains(out.String(), "FAIL tiny/will-fail: tasks_total max limit 1") {
		t.Errorf("stdout does not name the failing case and budget:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1/2 cases passed") {
		t.Errorf("summary line wrong:\n%s", out.String())
	}

	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var failRec map[string]any
	var summary map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("report line is not JSON: %q", line)
		}
		switch {
		case rec["summary"] == true:
			summary = rec
		case rec["case"] == "will-fail":
			failRec = rec
		}
	}
	if failRec == nil {
		t.Fatalf("report has no record for the failing case:\n%s", data)
	}
	if failRec["status"] != "fail" {
		t.Errorf("failing case status = %v", failRec["status"])
	}
	vs, _ := failRec["violations"].([]any)
	if len(vs) != 1 {
		t.Errorf("failing case carries %d violations, want 1", len(vs))
	}
	if summary == nil || summary["failed"] != float64(1) {
		t.Errorf("summary record = %v, want failed=1", summary)
	}
}

// TestCorpusValidationErrors drives malformed-corpus inputs; all must
// surface as *corpusError or *workload.BudgetError (exit code 2), never
// as a silent pass or a plain runtime failure.
func TestCorpusValidationErrors(t *testing.T) {
	valid := map[string]string{
		"machine.json":          tinyMachine,
		"cases/ok/case.json":    `{"recipe": "steady-state"}`,
		"cases/ok/budgets.json": `{"budgets": [{"metric": "tasks_total", "min": 1}]}`,
	}
	cases := map[string]struct {
		mutate     func(files map[string]string)
		wantBudget bool // expects *workload.BudgetError instead of *corpusError
	}{
		"malformed machine.json": {mutate: func(f map[string]string) { f["machine.json"] = `{oops` }},
		"unknown machine field":  {mutate: func(f map[string]string) { f["machine.json"] = `{"devices": 5, "stations": 1, "tasks": 5, "cores": 4}` }},
		"zero populations":       {mutate: func(f map[string]string) { f["machine.json"] = `{"devices": 0, "stations": 0, "tasks": 0}` }},
		"malformed case.json":    {mutate: func(f map[string]string) { f["cases/ok/case.json"] = `{oops` }},
		"sourceless case":        {mutate: func(f map[string]string) { f["cases/ok/case.json"] = `{"seed": 3}` }},
		"double-sourced case": {mutate: func(f map[string]string) {
			f["cases/ok/case.json"] = `{"recipe": "steady-state", "scenario": "x.json"}`
		}},
		"unknown recipe":        {mutate: func(f map[string]string) { f["cases/ok/case.json"] = `{"recipe": "nope"}` }},
		"missing scenario file": {mutate: func(f map[string]string) { f["cases/ok/case.json"] = `{"scenario": "missing.json"}` }},
		"malformed budgets": {
			mutate: func(f map[string]string) {
				f["cases/ok/budgets.json"] = `{"budgets": [{"metric": "no.such.metric", "min": 1}]}`
			},
			wantBudget: true,
		},
	}
	for name, tc := range cases {
		files := make(map[string]string, len(valid))
		for k, v := range valid {
			files[k] = v
		}
		tc.mutate(files)
		root := writeCorpus(t, files)
		var out strings.Builder
		err := run([]string{"-root", root}, &out)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		var ce *corpusError
		var be *workload.BudgetError
		switch {
		case tc.wantBudget && !errors.As(err, &be):
			t.Errorf("%s: error %T is not a *workload.BudgetError", name, err)
		case !tc.wantBudget && !errors.As(err, &ce):
			t.Errorf("%s: error %T is not a *corpusError", name, err)
		}
	}
}

// TestClassFilter proves -class selects exactly one class and rejects
// unknown names.
func TestClassFilter(t *testing.T) {
	classes, err := discover(corpusRoot, "ci-smoke")
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 1 || classes[0].Name != "ci-smoke" {
		t.Fatalf("filter returned %+v", classes)
	}
	if _, err := discover(corpusRoot, "nope"); err == nil {
		t.Error("unknown class accepted")
	} else {
		var ce *corpusError
		if errors.As(err, &ce) {
			t.Error("unknown -class is CLI misuse (exit 1), not a corpus error (exit 2)")
		}
	}
}

func TestListCorpus(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-root", corpusRoot, "-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ci-smoke", "edge-1k", "recipe:flash-crowd", "scenario:scenario.json"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("corpus list missing %q:\n%s", want, out.String())
		}
	}
}

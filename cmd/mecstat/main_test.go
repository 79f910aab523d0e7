package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsmec/internal/obs"
)

func TestSingleRunReport(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"testdata/base.json"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"tool=mecsim", "seed=11", "hash=8f21c04ab9e01d52",
		"lp.price_evaluations", "sim.utilization.st.cpu", "lp.pivots_per_solve",
		"p50", "p95", "p99",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestCompareIdenticalRuns is the shape `make verify` smokes: comparing a
// manifest against itself must gate clean.
func TestCompareIdenticalRuns(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-threshold", "0.1", "testdata/base.json", "testdata/base.json"}, &out)
	if err != nil {
		t.Fatalf("identical runs flagged: %v\n%s", err, out.String())
	}
	for _, want := range []string{"counters: identical", "histograms: identical percentiles", "no regressions"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
}

// TestCompareDetectsRegression pins the acceptance criterion: the
// committed regressed fixture's injected histogram shift (and counter
// growth) must surface in the report, and -threshold must turn it into a
// non-zero exit.
func TestCompareDetectsRegression(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-threshold", "0.2", "testdata/base.json", "testdata/regressed.json"}, &out)
	if err == nil {
		t.Fatalf("regressed run passed the gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "lp.pivots_per_solve") {
		t.Errorf("gate error %q does not name the regressed histogram", err)
	}
	s := out.String()
	if !strings.Contains(s, "lp.price_evaluations") || !strings.Contains(s, "+100.0%") {
		t.Errorf("counter delta for lp.price_evaluations missing:\n%s", s)
	}
	if !strings.Contains(s, "lp.pivots_per_solve") {
		t.Errorf("histogram shift section missing lp.pivots_per_solve:\n%s", s)
	}
}

// TestCompareReportOnlyWithoutThreshold: the same fixtures with the
// default threshold of 0 report the shifts but do not gate.
func TestCompareReportOnlyWithoutThreshold(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"testdata/base.json", "testdata/regressed.json"}, &out); err != nil {
		t.Fatalf("ungated comparison failed: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bad, empty} {
		var out strings.Builder
		err := run([]string{path}, &out)
		var pe *statParseError
		if err == nil || !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want *statParseError", path, err)
		}
	}
	// A missing file is an I/O error, not a parse error.
	var out strings.Builder
	err := run([]string{filepath.Join(dir, "nope.json")}, &out)
	var pe *statParseError
	if err == nil || errors.As(err, &pe) {
		t.Errorf("missing file err = %v, want plain I/O error", err)
	}
}

func TestSnapshotTimeline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	recs := []obs.SnapshotRecord{
		{At: time.Unix(100, 0), ElapsedSeconds: 0.5,
			DeltaCounters: map[string]int64{"lp.solves": 12, "sim.events": 900}},
		{At: time.Unix(101, 0), ElapsedSeconds: 1.5, Final: true,
			DeltaCounters: map[string]int64{"sim.events": 300}},
	}
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-snapshots", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"2 records over 1.500s", "sim.events+900", "sim.events+300", "*"} {
		if !strings.Contains(s, want) {
			t.Errorf("timeline missing %q:\n%s", want, s)
		}
	}
}

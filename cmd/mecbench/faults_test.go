package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stripTimings removes the nondeterministic "(id in 1.2s)" wall-clock
// lines so output can be compared across machines.
func stripTimings(s string) string {
	var kept []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "(") && strings.Contains(line, " in ") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestGoldenSimcheck locks the simulator-facing experiment output against
// a capture taken before the fault-injection layer landed: with no -faults
// involved, the numbers must not move.
func TestGoldenSimcheck(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_simcheck.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-experiment", "simcheck", "-quick", "-trials", "2", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := stripTimings(out.String()); got != string(want) {
		t.Errorf("simcheck output drifted from golden:\n%s", got)
	}
}

// TestGoldenRatio locks the exact-optimum experiment at its default
// trials: every proven optimum, and the count of node-limited and
// over-constrained instances each row leaves out.
func TestGoldenRatio(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_ratio.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-experiment", "ratio", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := stripTimings(out.String()); got != string(want) {
		t.Errorf("ratio output drifted from golden:\n%s", got)
	}
}

func TestRobustnessExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "robustness", "-quick", "-trials", "1", "-seed", "3", "-fault-seed", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"robustness", "outage rate", "goodput", "wasted"} {
		if !strings.Contains(s, want) {
			t.Errorf("robustness output missing %q:\n%s", want, s)
		}
	}
}

// TestRobustnessDeterministicFaultSeed re-runs the sweep with the same and
// a different fault seed: same seed reproduces the table, different seed
// moves it.
func TestRobustnessDeterministicFaultSeed(t *testing.T) {
	render := func(faultSeed string) string {
		var out strings.Builder
		err := run([]string{"-experiment", "robustness", "-quick", "-trials", "1", "-seed", "3", "-fault-seed", faultSeed}, &out)
		if err != nil {
			t.Fatal(err)
		}
		return stripTimings(out.String())
	}
	a, b, c := render("2"), render("2"), render("7")
	if a != b {
		t.Error("same fault seed should reproduce the sweep exactly")
	}
	if a == c {
		t.Error("different fault seeds should perturb the sweep")
	}
}

package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestParallelDeterministic pins the determinism contract of the whole
// pipeline: stdout, simulator replay included, is byte-identical at any
// -parallel worker count.
func TestParallelDeterministic(t *testing.T) {
	base := []string{"-seed", "3", "-tasks", "40", "-devices", "12", "-stations", "3"}
	var ref string
	for _, parallel := range []int{1, 2, 8} {
		args := append(append([]string{}, base...), "-parallel", fmt.Sprint(parallel))
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("-parallel %d: %v", parallel, err)
		}
		if ref == "" {
			ref = out.String()
			continue
		}
		if out.String() != ref {
			t.Errorf("-parallel %d output differs from -parallel 1:\n%s", parallel, out.String())
		}
	}
	if !strings.Contains(ref, "discrete-event replay") {
		t.Fatalf("replay summary missing:\n%s", ref)
	}
}

// TestShardsDeterministicWithFaults is the fault-injected twin of
// TestParallelDeterministic: outages, departures, retries and
// reassignments must resolve identically whether the per-station
// clusters are solved by one worker or spread over eight. The name dates
// from the station-sharded event heaps that the single heap replaced.
func TestShardsDeterministicWithFaults(t *testing.T) {
	base := []string{"-seed", "3", "-tasks", "30", "-devices", "10", "-stations", "2",
		"-faults", "-fault-seed", "2"}
	var ref string
	for _, parallel := range []int{1, 8} {
		args := append(append([]string{}, base...), "-parallel", fmt.Sprint(parallel))
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("-parallel %d: %v", parallel, err)
		}
		if ref == "" {
			ref = out.String()
			continue
		}
		if out.String() != ref {
			t.Errorf("-parallel %d faulty output differs from -parallel 1:\n%s", parallel, out.String())
		}
	}
	if !strings.Contains(ref, "fault injection:") || !strings.Contains(ref, "recovery:") {
		t.Fatalf("fault summary missing:\n%s", ref)
	}
}

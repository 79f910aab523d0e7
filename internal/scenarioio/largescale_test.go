package scenarioio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"dsmec/internal/rng"
	"dsmec/internal/workload"
)

// largeDecodeBudget pins the bytes allocated per decode of the
// 100k-device document below. Measured at 131 MB/op on a 2-vCPU x86-64
// box with go1.24 (the resident scenario — task arena, ID index,
// topology — is nearly all of it; the json.Decoder token walk this codec
// replaced took 153 MB/op). The budget is that measurement plus 25% for
// toolchain drift, which still catches any return to materializing the
// document or its elements.
const largeDecodeBudget = 164 << 20

// TestLargeScenarioMemoryBudget is the `make bench-smoke` large-scenario
// memory gate: generate a 100k-device / 200k-task scenario, encode it,
// and decode it back under a pinned B/op budget. The run
// allocates hundreds of megabytes and takes seconds, so it only runs
// when MEC_LARGE_SMOKE=1 (the Makefile sets it).
func TestLargeScenarioMemoryBudget(t *testing.T) {
	if os.Getenv("MEC_LARGE_SMOKE") == "" {
		t.Skip("set MEC_LARGE_SMOKE=1 to run the large-scenario memory check")
	}
	sc, err := workload.GenerateHolistic(rng.NewSource(9), workload.Params{
		NumDevices: 100_000, NumStations: 1_000, NumTasks: 200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	t.Logf("document: %.1f MB for %d devices / %d tasks",
		float64(len(doc))/(1<<20), sc.System.NumDevices(), sc.Tasks.Len())

	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := Decode(bytes.NewReader(doc))
			if err != nil {
				b.Fatal(err)
			}
			if got.Tasks.Len() != sc.Tasks.Len() {
				b.Fatalf("decoded %d tasks, want %d", got.Tasks.Len(), sc.Tasks.Len())
			}
		}
	})
	perOp := r.AllocedBytesPerOp()
	t.Logf("decode: %.1f MB/op, %d allocs/op over %d iteration(s)",
		float64(perOp)/(1<<20), r.AllocsPerOp(), r.N)
	if perOp > largeDecodeBudget {
		t.Errorf("decode allocated %d B/op, budget %d B/op", perOp, int64(largeDecodeBudget))
	}
}

// TestReferenceHashes pins the encoder's bytes on the seed-1 documents of
// the repository benchmark's three workloads (devices/stations/tasks).
// The two large ones run only when MEC_LARGE_SMOKE=1.
func TestReferenceHashes(t *testing.T) {
	cases := []struct {
		devices, stations, tasks int
		sha256                   string
	}{
		{800, 20, 6000, "f7882373c56bbd5042b85a4496b7dfa42f3bedd40407d4597f1bddc5ce03ee50"},
		{6000, 120, 36000, "883683b0c7fc6297eaad1ab66ec33048b3a8c185595a8e086c12dc0b1635669a"},
		{100000, 5000, 100000, "c1cf0d1505e31e1d50b4b476b7ec0b280dfbc7763c085763175c3faedaca93ae"},
	}
	for i, c := range cases {
		if i > 0 && os.Getenv("MEC_LARGE_SMOKE") == "" {
			t.Logf("skipping %d/%d/%d: set MEC_LARGE_SMOKE=1", c.devices, c.stations, c.tasks)
			continue
		}
		sc, err := workload.GenerateHolistic(rng.NewSource(1), workload.Params{
			NumDevices: c.devices, NumStations: c.stations, NumTasks: c.tasks,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := Encode(h, sc); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.sha256 {
			t.Errorf("%d/%d/%d: sha256 %s, want %s", c.devices, c.stations, c.tasks, got, c.sha256)
		}
	}
}

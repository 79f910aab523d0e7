package scenarioio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"dsmec/internal/compute"
	"dsmec/internal/core"
	"dsmec/internal/rng"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

func roundTrip(t *testing.T, sc *workload.Scenario) *workload.Scenario {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestRoundTripHolistic(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(1), workload.Params{
		NumDevices: 10, NumStations: 2, NumTasks: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, sc)

	if got.System.NumDevices() != sc.System.NumDevices() ||
		got.System.NumStations() != sc.System.NumStations() {
		t.Fatal("topology dimensions changed")
	}
	for i := range sc.System.Devices {
		a, b := sc.System.Devices[i], got.System.Devices[i]
		if a.Station != b.Station || a.ResourceCap != b.ResourceCap {
			t.Fatalf("device %d structure changed", i)
		}
		if math.Abs(float64(a.Link.Upload-b.Link.Upload)) > 1e-6 ||
			math.Abs(float64(a.Proc.Frequency-b.Proc.Frequency)) > 1 {
			t.Fatalf("device %d parameters drifted", i)
		}
		if a.Proc.Kappa != b.Proc.Kappa {
			t.Fatalf("device %d kappa changed", i)
		}
	}
	if got.Tasks.Len() != sc.Tasks.Len() {
		t.Fatal("task count changed")
	}
	for i, a := range sc.Tasks.All() {
		b := got.Tasks.All()[i]
		if a.ID != b.ID || a.Kind != b.Kind || a.LocalSize != b.LocalSize ||
			a.ExternalSize != b.ExternalSize || a.ExternalSource != b.ExternalSource ||
			a.Resource != b.Resource || a.OpSize != b.OpSize {
			t.Fatalf("task %v changed: %+v vs %+v", a.ID, a, b)
		}
		if math.Abs(a.Deadline.Seconds()-b.Deadline.Seconds()) > 1e-12 {
			t.Fatalf("task %v deadline drifted", a.ID)
		}
	}
	if got.Placement != nil {
		t.Fatal("holistic scenario should decode without a placement")
	}
}

func TestRoundTripPreservesCosts(t *testing.T) {
	// The real invariant: every algorithm input (t_ijl, E_ijl) survives
	// the round trip, so assignments and metrics are identical.
	sc, err := workload.GenerateHolistic(rng.NewSource(2), workload.Params{
		NumDevices: 8, NumStations: 2, NumTasks: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, sc)

	resA, err := core.LPHTA(sc.Model, sc.Tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := core.LPHTA(got.Model, got.Tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	mA, err := core.Evaluate(sc.Model, sc.Tasks, resA.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := core.Evaluate(got.Model, got.Tasks, resB.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(mA.TotalEnergy-mB.TotalEnergy)) > 1e-9 {
		t.Errorf("energy drifted across round trip: %v vs %v", mA.TotalEnergy, mB.TotalEnergy)
	}
	if mA.Unsatisfied != mB.Unsatisfied {
		t.Errorf("unsatisfied count drifted: %d vs %d", mA.Unsatisfied, mB.Unsatisfied)
	}
}

func TestRoundTripDivisible(t *testing.T) {
	sc, err := workload.GenerateDivisible(rng.NewSource(3), workload.Params{
		NumDevices: 10, NumStations: 2, NumTasks: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, sc)
	if got.Placement == nil {
		t.Fatal("placement lost")
	}
	if got.Placement.NumBlocks() != sc.Placement.NumBlocks() ||
		got.Placement.BlockSize() != sc.Placement.BlockSize() {
		t.Fatal("placement dimensions changed")
	}
	for i := 0; i < sc.Placement.NumDevices(); i++ {
		a, err := sc.Placement.Holding(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Placement.Holding(i)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("device %d holding changed", i)
		}
	}
	for i, a := range sc.Tasks.All() {
		b := got.Tasks.All()[i]
		if !a.LocalBlocks.Equal(b.LocalBlocks) || !a.ExternalBlocks.Equal(b.ExternalBlocks) {
			t.Fatalf("task %v block sets changed", a.ID)
		}
	}

	// The DTA pipeline must produce identical results on both.
	dtaA, err := core.DTA(sc.Model, sc.Tasks, sc.Placement, core.DTAOptions{Goal: core.GoalWorkload})
	if err != nil {
		t.Fatal(err)
	}
	dtaB, err := core.DTA(got.Model, got.Tasks, got.Placement, core.DTAOptions{Goal: core.GoalWorkload})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(dtaA.Metrics.TotalEnergy-dtaB.Metrics.TotalEnergy)) > 1e-9 {
		t.Errorf("DTA energy drifted: %v vs %v", dtaA.Metrics.TotalEnergy, dtaB.Metrics.TotalEnergy)
	}
}

func TestRoundTripConstantResultModel(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(4), workload.Params{
		NumDevices: 4, NumStations: 1, NumTasks: 8,
		ResultModel: compute.ConstantResult{Size: 9 * units.Kilobyte},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, sc)
	if size := got.Model.ResultSize(12345 * units.Kilobyte); size != 9*units.Kilobyte {
		t.Errorf("constant result model lost: got %v", size)
	}
}

// smallDocument encodes a two-task scenario, the base the malformed
// documents below are cut from.
func smallDocument(t *testing.T) string {
	t.Helper()
	sc, err := workload.GenerateHolistic(rng.NewSource(7), workload.Params{
		NumDevices: 3, NumStations: 1, NumTasks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// repeatedTasks appends a second tasks array, its indices moved so the
// IDs do not collide, to a valid document.
func repeatedTasks(t *testing.T, valid string) string {
	t.Helper()
	doc, err := readDocument([]byte(valid))
	if err != nil {
		t.Fatal(err)
	}
	for i := range doc.Tasks {
		doc.Tasks[i].Index += 1000
	}
	more, err := json.Marshal(doc.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(strings.TrimSpace(valid), "}") + `, "tasks": ` + string(more) + "}"
}

func TestDecodeErrors(t *testing.T) {
	valid := smallDocument(t)
	if _, err := Decode(strings.NewReader(valid)); err != nil {
		t.Fatalf("base document: %v", err)
	}
	tests := []struct {
		name string
		body string
	}{
		{"empty", ""},
		{"not json", "nope"},
		{"wrong version", `{"version": 99}`},
		{"unknown field", `{"version": 1, "bogus": true}`},
		{"bad result kind", `{"version":1,"system":{"devices":[{"station":0,"upload_mbps":1,"download_mbps":1,"tx_power_w":1,"rx_power_w":1,"tech":"4G","freq_ghz":1,"kappa":0,"resource_cap":1}],"stations":[{"freq_ghz":4,"resource_cap":1}],"cloud_ghz":2.4,"wires":{"station_latency_s":0,"station_bandwidth_bps":0,"station_joule_per_byte":0,"cloud_latency_s":0,"cloud_bandwidth_bps":0,"cloud_joule_per_byte":0}},"cost_model":{"cycles_per_byte":330,"result_kind":"cubic","result_value":1},"tasks":[]}`},
		{"invalid system", `{"version":1,"system":{"devices":[],"stations":[],"cloud_ghz":0,"wires":{"station_latency_s":0,"station_bandwidth_bps":0,"station_joule_per_byte":0,"cloud_latency_s":0,"cloud_bandwidth_bps":0,"cloud_joule_per_byte":0}},"cost_model":{"cycles_per_byte":330,"result_kind":"proportional","result_value":0.2},"tasks":[]}`},
		{"trailing bytes", valid + "this is not json {]"},
		{"repeated tasks", repeatedTasks(t, valid)},
		{"repeated task field", strings.Replace(valid, `"resource": `, `"resource": 1, "resource": `, 1)},
		{"repeated version", strings.Replace(valid, `"version": 1`, `"version": 1, "version": 1`, 1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tt.body))
			if err == nil {
				t.Fatal("Decode should fail")
			}
			t.Log(err)
			if !strings.HasPrefix(err.Error(), "scenarioio: ") {
				t.Errorf("error %q lacks the scenarioio: prefix", err)
			}
		})
	}
}

// TestDecodeErrorNamesElementAndOffset pins the error form: the element,
// the key and the byte offset where the bad value ends.
func TestDecodeErrorNamesElementAndOffset(t *testing.T) {
	valid := smallDocument(t)
	at := strings.LastIndex(valid, `"resource": `) + len(`"resource": `)
	end := at + strings.IndexAny(valid[at:], ",\n")
	body := valid[:at] + `"high"` + valid[end:]
	_, err := Decode(strings.NewReader(body))
	want := fmt.Sprintf(`scenarioio: task 1: resource: expected number, found '"' at byte %d`, at)
	if err == nil || err.Error() != want {
		t.Errorf("error = %v, want %s", err, want)
	}
}

// TestDecodeNumberGrammar checks number spellings against the
// encoding/json oracle: the scanner accepts exactly what the oracle
// accepts, with the same bits, except null, which the oracle reads as
// zero and the scanner rejects for every scalar.
func TestDecodeNumberGrammar(t *testing.T) {
	valid := smallDocument(t)
	spellings := []string{
		"2", "2.5", "-0", "0.0", "1e3", "1E+3", "2.5e-3", "1e-400", "123456789012345678901234567890",
		"+1", "01", "-", "1.", ".5", "1e", "0x10", "NaN", "Infinity", "1e400", "--1", "1.5.3", `"1"`, "true", "null",
	}
	for _, field := range []string{`"resource": `, `"op_bytes": `, `"station": `} {
		for _, num := range spellings {
			at := strings.Index(valid, field) + len(field)
			end := at + strings.IndexAny(valid[at:], ",\n")
			body := valid[:at] + num + valid[end:]
			got, gotErr := Decode(strings.NewReader(body))
			want, _, wantErr := decodeDocument([]byte(body))
			if num == "null" {
				if gotErr == nil {
					t.Errorf("%snull: scanner accepted null for a scalar", field)
				}
				continue
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Errorf("%s%s: scanner error %v, oracle error %v", field, num, gotErr, wantErr)
				continue
			}
			if gotErr == nil {
				if d := bitDiff(got, want); d != "" {
					t.Errorf("%s%s: decoded values differ: %s", field, num, d)
				}
			}
		}
	}
}

func TestEncodeNil(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, nil); err == nil {
		t.Error("Encode(nil) should fail")
	}
	if err := Encode(&buf, &workload.Scenario{}); err == nil {
		t.Error("Encode of empty scenario should fail")
	}
}

func TestDecodePlacementMismatch(t *testing.T) {
	sc, err := workload.GenerateDivisible(rng.NewSource(5), workload.Params{
		NumDevices: 4, NumStations: 1, NumTasks: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	// Corrupt: drop one holding row.
	doc, err := readDocument(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	doc.Placement.Holdings = doc.Placement.Holdings[:len(doc.Placement.Holdings)-1]
	var buf2 bytes.Buffer
	if err := writeDocument(&buf2, doc); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf2); err == nil {
		t.Error("holding/device mismatch should fail")
	}
}

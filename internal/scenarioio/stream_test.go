package scenarioio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"dsmec/internal/rng"
	"dsmec/internal/sim"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// streamScenarios builds one scenario per interesting shape: holistic
// (no placement), divisible (placement with per-device holdings), and
// holistic with an embedded fault plan.
func streamScenarios(t *testing.T) map[string]struct {
	sc *workload.Scenario
	fp *sim.FaultPlan
} {
	t.Helper()
	hol, err := workload.GenerateHolistic(rng.NewSource(11), workload.Params{
		NumDevices: 10, NumStations: 3, NumTasks: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	div, err := workload.GenerateDivisible(rng.NewSource(12), workload.Params{
		NumDevices: 8, NumStations: 2, NumTasks: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := workload.GenerateHolistic(rng.NewSource(13), workload.Params{
		NumDevices: 6, NumStations: 2, NumTasks: 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	fp := sim.GenerateFaultPlan(rng.NewSource(14), faulty.System, sim.FaultParams{
		OutageRate: 0.5, ChurnRate: 0.1, DegradeRate: 0.3, Horizon: 10 * units.Second,
	})
	return map[string]struct {
		sc *workload.Scenario
		fp *sim.FaultPlan
	}{
		"holistic":  {hol, nil},
		"divisible": {div, nil},
		"faults":    {faulty, fp},
	}
}

// TestStreamEncodeMatchesDocument pins the encoder to the encoding/json
// oracle byte for byte: downstream hashes of scenario files must not
// change because of how they were written.
func TestStreamEncodeMatchesDocument(t *testing.T) {
	for name, tc := range streamScenarios(t) {
		t.Run(name, func(t *testing.T) {
			var oracle, codec bytes.Buffer
			if err := encodeDocument(&oracle, tc.sc, tc.fp); err != nil {
				t.Fatalf("encodeDocument: %v", err)
			}
			if err := EncodeWithFaults(&codec, tc.sc, tc.fp); err != nil {
				t.Fatalf("EncodeWithFaults: %v", err)
			}
			if d := firstDiff(oracle.Bytes(), codec.Bytes()); d != "" {
				t.Fatal(d)
			}
		})
	}
}

// firstDiff shows where two encodings first differ, or returns "".
func firstDiff(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	at := 0
	for at < len(a) && at < len(b) && a[at] == b[at] {
		at++
	}
	lo := max(at-60, 0)
	return fmt.Sprintf("encodings diverge at byte %d:\noracle: %q\ncodec:  %q",
		at, a[lo:min(at+60, len(a))], b[lo:min(at+60, len(b))])
}

// TestStreamDecodeMatchesDocument pins the scanner to the encoding/json
// oracle: both must rebuild the same scenario and the same fault plan,
// bit for bit, from the same bytes.
func TestStreamDecodeMatchesDocument(t *testing.T) {
	for name, tc := range streamScenarios(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := EncodeWithFaults(&buf, tc.sc, tc.fp); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			oracleSc, oracleFp, err := decodeDocument(data)
			if err != nil {
				t.Fatalf("decodeDocument: %v", err)
			}
			sc, fp, err := DecodeWithFaults(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("DecodeWithFaults: %v", err)
			}
			if d := bitDiff(oracleSc, sc); d != "" {
				t.Fatalf("scenario differs between decoders: %s", d)
			}
			if d := bitDiff(oracleFp, fp); d != "" {
				t.Fatalf("fault plan differs between decoders: %s", d)
			}
		})
	}
}

// TestPinnedBaselineRoundTrip decodes the committed workload-checks
// scenario and re-encodes it byte for byte.
func TestPinnedBaselineRoundTrip(t *testing.T) {
	data, err := os.ReadFile("../../workload-checks/ci-smoke/cases/pinned-baseline/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	sc, fp, err := DecodeWithFaults(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := EncodeWithFaults(&out, sc, fp); err != nil {
		t.Fatal(err)
	}
	if d := firstDiff(data, out.Bytes()); d != "" {
		t.Fatal(d)
	}
}

// TestStreamDecodeFieldOrder checks the decoder accepts documents whose
// keys arrive in any order (JSON objects are unordered).
func TestStreamDecodeFieldOrder(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(15), workload.Params{
		NumDevices: 4, NumStations: 1, NumTasks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	doc, err := readDocument(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Re-emit with tasks before system and version last, and each task's
	// keys reversed.
	var out bytes.Buffer
	out.WriteString("{\"tasks\":[")
	for i, td := range doc.Tasks {
		if i > 0 {
			out.WriteString(",")
		}
		fields := map[string]any{}
		raw, err := json.Marshal(td)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(keys)))
		out.WriteString("{")
		for j, k := range keys {
			if j > 0 {
				out.WriteString(",")
			}
			writeJSON(t, &out, k)
			out.WriteString(":")
			writeJSON(t, &out, fields[k])
		}
		out.WriteString("}")
	}
	out.WriteString("],\"cost_model\":")
	writeJSON(t, &out, doc.Cost)
	out.WriteString(",\"system\":")
	writeJSON(t, &out, doc.System)
	out.WriteString(",\"version\":1}")

	got, err := Decode(&out)
	if err != nil {
		t.Fatalf("Decode with reordered fields: %v", err)
	}
	if d := bitDiff(sc.Tasks, got.Tasks); d != "" {
		t.Fatalf("reordered document decoded differently: %s", d)
	}
	if got.System.NumDevices() != sc.System.NumDevices() {
		t.Fatal("reordered document decoded incorrectly")
	}
}

func writeJSON(t *testing.T, buf *bytes.Buffer, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(data)
}

// TestNumberAndStringFormatsMatchJSON pins appendFloat and appendString
// to encoding/json's output on the edge cases of its number rule and its
// HTML-safe escaping.
func TestNumberAndStringFormatsMatchJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 5.85, 1e-6, 9.999999e-7, 1e-7, 1.5e-10,
		1e20, 1e21, 1.2345e21, -1e21, 123456789e-20, 1e-27, 5e-324,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e300, 2.5e-300,
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		f := math.Float64frombits(r.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); string(got) != string(want) {
			t.Errorf("appendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
	for _, s := range []string{
		"", "4G", "Wi-Fi", "Tech(7)", `quote " backslash \ slash /`, "<a href=\"x\">&amp;</a>",
		"tab\tnewline\nreturn\rbell\x07nul\x00", "\b\f\x1f\x7f", "line\u2028para\u2029",
		"invalid \xff\xfe utf-8", "é ü 日本", "\U0001F600",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); string(got) != string(want) {
			t.Errorf("appendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
}

// TestEncodeRejectsNonFinite checks a value JSON cannot carry is an
// error naming where it sits, not a corrupt document.
func TestEncodeRejectsNonFinite(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(16), workload.Params{
		NumDevices: 3, NumStations: 1, NumTasks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.Tasks.At(2).Resource = math.Inf(1)
	err = Encode(io.Discard, sc)
	if want := "scenarioio: task 2: resource: unsupported value +Inf"; err == nil || err.Error() != want {
		t.Errorf("Encode error = %v, want %s", err, want)
	}
}

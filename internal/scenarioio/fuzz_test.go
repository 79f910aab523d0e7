package scenarioio

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the decoder. It must never panic.
// Any document it accepts must re-encode to bytes that decode to an
// equal scenario and fault plan, and re-encoding that must give the same
// bytes again. Wherever the encoding/json oracle also accepts the bytes,
// every decoded value must match the oracle's bit for bit.
//
// The seed corpus lives in testdata/fuzz/FuzzDecode; `make fuzz-smoke`
// runs the fuzzer for a few seconds, and any crasher it writes there is
// committed as a regression case.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, fp, err := decode(bytes.NewReader(data), true)
		if oracleSc, oracleFp, oracleErr := decodeDocument(data); err == nil && oracleErr == nil {
			if d := bitDiff(oracleSc, sc); d != "" {
				t.Fatalf("scenario differs from the encoding/json oracle: %s", d)
			}
			if d := bitDiff(oracleFp, fp); d != "" {
				t.Fatalf("fault plan differs from the encoding/json oracle: %s", d)
			}
		}
		if err != nil {
			return
		}

		var first bytes.Buffer
		if err := EncodeWithFaults(&first, sc, fp); err != nil {
			t.Fatalf("accepted document does not re-encode: %v", err)
		}
		sc2, fp2, err := decode(bytes.NewReader(first.Bytes()), true)
		if err != nil {
			t.Fatalf("re-encoded document does not decode: %v", err)
		}
		if d := bitDiff(sc, sc2); d != "" {
			t.Fatalf("scenario changed across a round trip: %s", d)
		}
		if d := bitDiff(fp, fp2); d != "" {
			t.Fatalf("fault plan changed across a round trip: %s", d)
		}
		var second bytes.Buffer
		if err := EncodeWithFaults(&second, sc2, fp2); err != nil {
			t.Fatal(err)
		}
		if d := firstDiff(first.Bytes(), second.Bytes()); d != "" {
			t.Fatalf("second encode differs: %s", d)
		}
	})
}

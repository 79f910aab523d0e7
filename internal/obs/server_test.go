package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// get fetches a path from ts and returns status, content type, and body.
func get(t *testing.T, base, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lp.price_evaluations").Add(7)
	reg.Histogram("lp.solve_seconds", TimeBuckets).Observe(0.002)
	m := NewManifest("mecsim", []string{"-tasks", "10"})
	m.SetSeed(42)
	m.Annotate("note", "live")

	ts := httptest.NewServer(Handler(reg, m))
	defer ts.Close()

	status, ctype, body := get(t, ts.URL, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, "lp_price_evaluations 7") || !strings.Contains(body, "lp_solve_seconds_bucket") {
		t.Errorf("/metrics body:\n%s", body)
	}

	status, ctype, body = get(t, ts.URL, "/metrics.json")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/metrics.json status %d content type %q", status, ctype)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not a Snapshot: %v", err)
	}
	if snap.Counters["lp.price_evaluations"] != 7 || snap.Histograms["lp.solve_seconds"].Count != 1 {
		t.Errorf("/metrics.json snapshot = %+v", snap)
	}

	status, _, body = get(t, ts.URL, "/manifest")
	if status != http.StatusOK {
		t.Fatalf("/manifest status %d", status)
	}
	var live struct {
		Tool    string         `json:"tool"`
		Seed    int64          `json:"seed"`
		Live    bool           `json:"live"`
		Extra   map[string]any `json:"extra"`
		Metrics Snapshot       `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &live); err != nil {
		t.Fatalf("/manifest not JSON: %v\n%s", err, body)
	}
	if live.Tool != "mecsim" || live.Seed != 42 || !live.Live || live.Extra["note"] != "live" {
		t.Errorf("/manifest view = %+v", live)
	}
	if live.Metrics.Counters["lp.price_evaluations"] != 7 {
		t.Errorf("/manifest metrics = %+v", live.Metrics)
	}

	status, _, body = get(t, ts.URL, "/debug/pprof/")
	if status != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d body %q", status, body[:min(len(body), 120)])
	}

	status, _, body = get(t, ts.URL, "/debug/vars")
	if status != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars status %d", status)
	}

	status, _, body = get(t, ts.URL, "/")
	if status != http.StatusOK || !strings.Contains(body, "/metrics.json") {
		t.Errorf("index status %d body %q", status, body)
	}

	status, _, _ = get(t, ts.URL, "/nope")
	if status != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", status)
	}
}

func TestHandlerNilRegistryAndManifest(t *testing.T) {
	ts := httptest.NewServer(Handler(nil, nil))
	defer ts.Close()
	if status, _, _ := get(t, ts.URL, "/metrics"); status != http.StatusOK {
		t.Errorf("/metrics with nil registry: %d", status)
	}
	status, _, body := get(t, ts.URL, "/manifest")
	if status != http.StatusOK || strings.TrimSpace(body) != "{}" {
		t.Errorf("/manifest with nil manifest: %d %q", status, body)
	}
}

func TestServerLifecycle(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x").Inc()
	s, err := NewServer("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s.URL(), "http://127.0.0.1:") {
		t.Errorf("URL = %q", s.URL())
	}
	status, _, body := get(t, s.URL(), "/metrics")
	if status != http.StatusOK || !strings.Contains(body, "x 1") {
		t.Errorf("live server /metrics: %d %q", status, body)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, err := http.Get(s.URL() + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
	var nilServer *Server
	if err := nilServer.Close(); err != nil {
		t.Errorf("nil server close: %v", err)
	}
}

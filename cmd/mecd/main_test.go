package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"dsmec/internal/core"
	"dsmec/internal/obs"
	"dsmec/internal/rng"
	"dsmec/internal/task"
	"dsmec/internal/workload"
)

func testScenario(t *testing.T, seed int64, devices, stations, tasks int) *workload.Scenario {
	t.Helper()
	sc, err := workload.GenerateHolistic(rng.NewSource(seed), workload.Params{
		NumDevices: devices, NumStations: stations, NumTasks: tasks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func testServer(t *testing.T, sc *workload.Scenario, workers int) (*httptest.Server, *obs.Registry) {
	t.Helper()
	srv, reg := quietServer(t, sc.Model, workers)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return hs, reg
}

// postTask streams one task through POST /v1/tasks and asserts acceptance.
func postTask(t *testing.T, base string, tk *task.Task) {
	t.Helper()
	body, err := json.Marshal(docFromTask(tk))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/tasks %v: status %d: %s", tk.ID, resp.StatusCode, b)
	}
}

func doReq(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// getBody fetches url and returns the raw bytes (status must be 200).
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// assignmentsMatchBatch fetches /v1/assignments and requires placement
// parity with a batch LP-HTA run over the given task set.
func assignmentsMatchBatch(t *testing.T, base string, sc *workload.Scenario, ts *task.Set) {
	t.Helper()
	batch, err := core.LPHTA(sc.Model, ts, &core.LPHTAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var doc assignmentsDoc
	if err := json.Unmarshal(getBody(t, base+"/v1/assignments"), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Assignments) != ts.Len() {
		t.Fatalf("assignments rows = %d, want %d", len(doc.Assignments), ts.Len())
	}
	for _, row := range doc.Assignments {
		id := task.ID{User: row.User, Index: row.Index}
		want := batch.Assignment.Of(id).String()
		if row.Subsystem != want {
			t.Errorf("task %v: daemon placed %s, batch placed %s", id, row.Subsystem, want)
		}
	}
}

// TestStreamedArrivalsMatchBatch is the tentpole e2e: tasks streamed one
// by one through the HTTP API must be assigned exactly as a batch LP-HTA
// run over the same static population.
func TestStreamedArrivalsMatchBatch(t *testing.T) {
	sc := testScenario(t, 5, 20, 4, 80)
	hs, reg := testServer(t, sc, 0)
	for i := 0; i < sc.Tasks.Len(); i++ {
		postTask(t, hs.URL, sc.Tasks.At(i))
	}
	assignmentsMatchBatch(t, hs.URL, sc, sc.Tasks)
	if got := reg.Counter("mecd.arrivals").Value(); got != int64(sc.Tasks.Len()) {
		t.Errorf("mecd.arrivals = %d, want %d", got, sc.Tasks.Len())
	}

	// A second read re-solves nothing: every shard is clean.
	solves := reg.Counter("mecd.solves").Value()
	_ = getBody(t, hs.URL+"/v1/assignments")
	if got := reg.Counter("mecd.solves").Value(); got != solves {
		t.Errorf("clean re-read triggered %d extra solves", got-solves)
	}
}

// TestResponseBytesIndependentOfParallelism pins the byte-identical
// discipline: the /v1/assignments and /v1/solve bodies must not depend on
// the dirty-shard worker count.
func TestResponseBytesIndependentOfParallelism(t *testing.T) {
	sc := testScenario(t, 6, 24, 6, 90)
	var assignments, solve []byte
	for _, workers := range []int{1, 8} {
		hs, _ := testServer(t, sc, workers)
		for i := 0; i < sc.Tasks.Len(); i++ {
			postTask(t, hs.URL, sc.Tasks.At(i))
		}
		got := getBody(t, hs.URL+"/v1/assignments")
		resp, err := http.Post(hs.URL+"/v1/solve", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		sbody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if assignments == nil {
			assignments, solve = got, sbody
			continue
		}
		if !bytes.Equal(got, assignments) {
			t.Errorf("workers=%d: /v1/assignments bytes differ from workers=1", workers)
		}
		if !bytes.Equal(sbody, solve) {
			t.Errorf("workers=%d: /v1/solve bytes differ from workers=1", workers)
		}
	}
}

// TestDeparturesMatchBatch: after removing a slice of tasks over the API,
// the remaining assignment must match a batch run over the survivors, and
// only the touched shards may re-solve.
func TestDeparturesMatchBatch(t *testing.T) {
	sc := testScenario(t, 7, 18, 3, 60)
	hs, reg := testServer(t, sc, 0)
	for i := 0; i < sc.Tasks.Len(); i++ {
		postTask(t, hs.URL, sc.Tasks.At(i))
	}
	_ = getBody(t, hs.URL+"/v1/assignments") // solve round 1: all cold

	// Remove every 7th task through the API; build the surviving set.
	survivors := &task.Set{}
	for i := 0; i < sc.Tasks.Len(); i++ {
		tk := sc.Tasks.At(i)
		if i%7 == 0 {
			resp := doReq(t, http.MethodDelete,
				fmt.Sprintf("%s/v1/tasks/%d/%d", hs.URL, tk.ID.User, tk.ID.Index))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("DELETE task %v: status %d", tk.ID, resp.StatusCode)
			}
			resp.Body.Close()
			continue
		}
		cp := *tk
		if err := survivors.Add(&cp); err != nil {
			t.Fatal(err)
		}
	}
	assignmentsMatchBatch(t, hs.URL, sc, survivors)
	if reg.Counter("mecd.departures").Value() == 0 {
		t.Error("mecd.departures never incremented")
	}

	// Unknown task: 404 with a JSON error body.
	resp := doReq(t, http.MethodDelete, hs.URL+"/v1/tasks/0/999999")
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown task: status %d, body %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "error") {
		t.Errorf("DELETE unknown task: body %s lacks error field", b)
	}
}

// TestDeviceLeaveAndRejoin: a leaving device takes its tasks with it and
// blocks new arrivals with 410 until it rejoins.
func TestDeviceLeaveAndRejoin(t *testing.T) {
	sc := testScenario(t, 8, 12, 3, 40)
	hs, reg := testServer(t, sc, 0)
	for i := 0; i < sc.Tasks.Len(); i++ {
		postTask(t, hs.URL, sc.Tasks.At(i))
	}

	// Pick the device raising task 0 and remove it.
	gone := sc.Tasks.At(0).ID.User
	resp := doReq(t, http.MethodDelete, fmt.Sprintf("%s/v1/devices/%d", hs.URL, gone))
	var leave struct {
		Status  string `json:"status"`
		Removed int    `json:"removed_tasks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&leave); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || leave.Status != "left" || leave.Removed == 0 {
		t.Fatalf("device leave: status %d, doc %+v", resp.StatusCode, leave)
	}

	// Its tasks are gone from the assignment; the rest match a batch run
	// over the surviving population.
	survivors := &task.Set{}
	for i := 0; i < sc.Tasks.Len(); i++ {
		tk := sc.Tasks.At(i)
		if tk.ID.User == gone {
			continue
		}
		cp := *tk
		if err := survivors.Add(&cp); err != nil {
			t.Fatal(err)
		}
	}
	assignmentsMatchBatch(t, hs.URL, sc, survivors)

	// New arrivals from the departed device are refused with 410.
	probe := *sc.Tasks.At(0)
	probe.ID.Index = 1 << 20
	body, _ := json.Marshal(docFromTask(&probe))
	post, err := http.Post(hs.URL+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusGone {
		t.Errorf("arrival from departed device: status %d, want %d", post.StatusCode, http.StatusGone)
	}

	// Rejoin and retry: accepted.
	join, err := http.Post(hs.URL+"/v1/devices", "application/json",
		strings.NewReader(fmt.Sprintf(`{"id":%d}`, gone)))
	if err != nil {
		t.Fatal(err)
	}
	join.Body.Close()
	if join.StatusCode != http.StatusOK {
		t.Fatalf("device rejoin: status %d", join.StatusCode)
	}
	postTask(t, hs.URL, &probe)
	if reg.Counter("mecd.device_leaves").Value() != 1 || reg.Counter("mecd.device_joins").Value() != 1 {
		t.Errorf("device churn counters = %d/%d, want 1/1",
			reg.Counter("mecd.device_leaves").Value(), reg.Counter("mecd.device_joins").Value())
	}
}

// TestStateAndHealth covers the read-only endpoints.
func TestStateAndHealth(t *testing.T) {
	sc := testScenario(t, 9, 10, 2, 20)
	hs, _ := testServer(t, sc, 0)
	for i := 0; i < sc.Tasks.Len(); i++ {
		postTask(t, hs.URL, sc.Tasks.At(i))
	}
	if !bytes.Contains(getBody(t, hs.URL+"/healthz"), []byte(`"ok":true`)) {
		t.Error("healthz body lacks ok:true")
	}
	var st stateDoc
	if err := json.Unmarshal(getBody(t, hs.URL+"/v1/state"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Tasks != sc.Tasks.Len() || st.Stations != 2 || st.Devices != 10 {
		t.Errorf("state = %+v, want %d tasks over 2 stations, 10 devices", st, sc.Tasks.Len())
	}
	_ = getBody(t, hs.URL+"/v1/assignments")
	var after stateDoc
	if err := json.Unmarshal(getBody(t, hs.URL+"/v1/state"), &after); err != nil {
		t.Fatal(err)
	}
	for _, sh := range after.Shards {
		if sh.Dirty {
			t.Errorf("station %d still dirty after a solve", sh.Station)
		}
	}
}

// TestBadRequests covers the input-validation edges.
func TestBadRequests(t *testing.T) {
	sc := testScenario(t, 10, 8, 2, 4)
	hs, _ := testServer(t, sc, 0)
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{`, http.StatusBadRequest},
		{"unknown field", `{"user":0,"index":1,"op_bytes":1000,"resource":1,"deadline_s":1,"bogus":3}`, http.StatusBadRequest},
		{"invalid task", `{"user":0,"index":1,"op_bytes":-5,"resource":1,"deadline_s":1}`, http.StatusBadRequest},
		{"unknown device", `{"user":999,"index":1,"op_bytes":1000,"resource":1,"deadline_s":1}`, http.StatusNotFound},
		{"unknown source", `{"user":0,"index":1,"op_bytes":1000,"external_bytes":500,"external_source":999,"resource":1,"deadline_s":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(hs.URL+"/v1/tasks", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Duplicate arrival conflicts.
	postTask(t, hs.URL, sc.Tasks.At(0))
	body, _ := json.Marshal(docFromTask(sc.Tasks.At(0)))
	resp, err := http.Post(hs.URL+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate arrival: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}
}

// TestRunSelfcheck drives the whole binary path `mecd -selfcheck` —
// generator boot, real listener, arrival/assign/departure cycle, metrics
// probe — and is the same sequence `make verify` runs.
func TestRunSelfcheck(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-selfcheck", "-preload", "30", "-log-level", "off"}, &out); err != nil {
		t.Fatalf("mecd -selfcheck: %v", err)
	}
	if !strings.Contains(out.String(), "selfcheck ok") {
		t.Errorf("selfcheck output %q lacks ok marker", out.String())
	}
}

// TestBodyCap: a POST body of exactly 1 MiB is read in full; one byte more
// is answered with 413.
func TestBodyCap(t *testing.T) {
	sc := testScenario(t, 10, 8, 2, 4)
	hs, _ := testServer(t, sc, 0)
	// doc pads head+tail with whitespace inside the object to size bytes,
	// so the decoder must read all of them.
	doc := func(head, tail string, size int) string {
		return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
	}
	const head, tail = `{"user":0,"index":1,`, `"op_bytes":1000,"resource":1,"deadline_s":1}`
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"task at the cap", "/v1/tasks", doc(head, tail, maxBodyBytes), http.StatusAccepted},
		{"task over the cap", "/v1/tasks", doc(head, tail, maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"device over the cap", "/v1/devices", doc(`{`, `"id":1}`, maxBodyBytes+1), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(hs.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s (%d bytes): status %d, want %d: %.200s", tc.name, len(tc.body), resp.StatusCode, tc.want, b)
		}
	}
}

// TestShutdownCountsAcknowledgedArrivals sends SIGTERM while clients are
// streaming arrivals: the daemon must finish the requests in flight before
// it writes its manifest, so every arrival a client saw acknowledged is
// counted there.
func TestShutdownCountsAcknowledgedArrivals(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "run.json")
	urls := make(chan string, 1)
	testHookListening = func(url string) { urls <- url }
	t.Cleanup(func() { testHookListening = nil })
	ran := make(chan error, 1)
	go func() {
		ran <- run([]string{"-addr", "127.0.0.1:0", "-devices", "40", "-stations", "4",
			"-metrics", manifest, "-log-level", "off"}, io.Discard)
	}()
	base := <-urls

	const clients = 4
	var acked atomic.Int64
	flowing := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(user int) {
			defer wg.Done()
			client := &http.Client{}
			defer client.CloseIdleConnections()
			for i := 0; ; i++ {
				body := fmt.Sprintf(`{"user":%d,"index":%d,"op_bytes":1000,"resource":1,"deadline_s":100}`, user, i)
				resp, err := client.Post(base+"/v1/tasks", "application/json", strings.NewReader(body))
				if err != nil {
					return // the daemon has stopped taking requests
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("arrival %d/%d: status %d", user, i, resp.StatusCode)
					return
				}
				if acked.Add(1) == 100 {
					close(flowing)
				}
			}
		}(c)
	}
	stopped := make(chan struct{})
	go func() { wg.Wait(); close(stopped) }()
	select {
	case <-flowing:
	case <-stopped: // every client failed early; their errors say why
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-ran; err != nil {
		t.Fatalf("mecd: %v", err)
	}
	<-stopped

	b, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if got, want := doc.Metrics.Counters["mecd.arrivals"], acked.Load(); got < want {
		t.Errorf("manifest counts %d arrivals, but clients saw %d acknowledged", got, want)
	}
}

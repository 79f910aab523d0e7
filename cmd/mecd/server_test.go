package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"dsmec/internal/costmodel"
	"dsmec/internal/obs"
	"dsmec/internal/rng"
	"dsmec/internal/task"
	"dsmec/internal/workload"
)

// quietServer builds a server over m with logging off and no listener;
// tests drive it through ServeHTTP.
func quietServer(tb testing.TB, m *costmodel.Model, workers int) (*server, *obs.Registry) {
	tb.Helper()
	reg := obs.NewRegistry()
	logger, err := obs.NewLogger(io.Discard, "off", "text")
	if err != nil {
		tb.Fatal(err)
	}
	s, err := newServer(m, reg, obs.NewManifest("mecd", nil), logger, workers)
	if err != nil {
		tb.Fatal(err)
	}
	return s, reg
}

// serve runs one request through the server in process.
func serve(s *server, method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// oracleAssignments is the /v1/assignments body the way the service built
// it before the append encoder: every shard's rows appended to one slice,
// sort.Slice by task ID, and encoding/json for the whole document. The
// summary is summed from the placements themselves, not from the shards'
// recorded counts.
func oracleAssignments(t *testing.T, s *server) []byte {
	t.Helper()
	doc := assignmentsDoc{Assignments: []assignmentDoc{}}
	for _, sh := range s.shards {
		res := sh.view().res
		if res == nil {
			continue
		}
		doc.Summary.Tasks += len(res.Placements)
		for _, p := range res.Placements {
			if p.Level == costmodel.SubsystemNone {
				doc.Summary.Cancelled++
			} else {
				doc.Summary.Placed++
			}
			doc.Assignments = append(doc.Assignments, assignmentDoc{
				User: p.ID.User, Index: p.ID.Index, Subsystem: p.Level.String(),
			})
		}
		doc.Summary.LPObjectiveJ += res.LPObjective.Joules()
		doc.Summary.RoundedEnergyJ += res.RoundedEnergy.Joules()
		doc.Summary.DeltaJ += res.Delta.Joules()
		doc.Summary.FractionalTasks += res.FractionalTasks
		doc.Summary.PreCancelled += res.PreCancelled
	}
	sort.Slice(doc.Assignments, func(i, j int) bool {
		a, b := doc.Assignments[i], doc.Assignments[j]
		if a.User != b.User {
			return a.User < b.User
		}
		return a.Index < b.Index
	})
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(doc); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkRead reads /v1/assignments and requires the oracle's bytes, which
// it builds from the same (now clean) shard results.
func checkRead(t *testing.T, s *server, step string) []byte {
	t.Helper()
	w := serve(s, http.MethodGet, "/v1/assignments", "")
	if w.Code != http.StatusOK {
		t.Fatalf("%s: GET /v1/assignments: status %d: %s", step, w.Code, w.Body)
	}
	got, want := w.Body.Bytes(), oracleAssignments(t, s)
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("%s: body differs from the encoding/json oracle at byte %d of %d/%d:\n got …%.80s\nwant …%.80s",
			step, n, len(got), len(want), got[n:], want[n:])
	}
	return got
}

// shuffleStations gives the scenario's devices a random station map,
// every station keeping at least one device, in place of the generator's
// round-robin one: scenario documents loaded with -load may map devices
// any way.
func shuffleStations(t *testing.T, sc *workload.Scenario, r *rand.Rand) {
	t.Helper()
	sys := sc.Model.System()
	k := sys.NumStations()
	for i, d := range r.Perm(sys.NumDevices()) {
		st := i
		if i >= k {
			st = r.Intn(k)
		}
		sys.Devices[d].Station = st
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAssignmentsMatchEncodingJSONOracle pins the append encoder and the
// counting-pass order byte for byte against the encoding/json path they
// replaced, on random servers: shuffled device→station maps, task indices
// arriving out of order per device, cancelled ("none") rows, devices
// leaving, departures past ClusterState's compaction threshold (more than
// 16 removed slots and more removed than present), and departed IDs
// arriving again.
func TestAssignmentsMatchEncodingJSONOracle(t *testing.T) {
	compacted := 0 // seeds in which some shard crossed the threshold
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			devices := 3 + r.Intn(30)
			stations := 1 + r.Intn(3)
			sc := testScenario(t, seed, devices, stations, 40+r.Intn(120))
			shuffleStations(t, sc, r)
			s, _ := quietServer(t, sc.Model, 1+r.Intn(4))

			body := checkRead(t, s, "empty server")
			if !bytes.HasPrefix(body, []byte(`{"assignments":[],"summary":{"tasks":0,`)) {
				t.Fatalf("empty server body %s", body)
			}

			// Arrivals in random order, each device's indices a random
			// permutation of gapped values; one task in five gets a
			// deadline nothing can meet.
			raised := make([]int, devices)
			for i := 0; i < sc.Tasks.Len(); i++ {
				raised[sc.Tasks.At(i).ID.User]++
			}
			indices := make([][]int, devices)
			for u, n := range raised {
				indices[u] = r.Perm(n)
			}
			var live []task.ID
			for _, i := range r.Perm(sc.Tasks.Len()) {
				tk := *sc.Tasks.At(i)
				u := tk.ID.User
				tk.ID.Index = indices[u][0]*7 + r.Intn(7)
				indices[u] = indices[u][1:]
				if r.Intn(5) == 0 {
					tk.Deadline = 1e-9
				}
				post(t, s, &tk)
				live = append(live, tk.ID)
				if r.Intn(25) == 0 {
					checkRead(t, s, "arrivals")
				}
			}
			checkRead(t, s, "all arrived")

			// Depart three quarters, reading now and then.
			r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			cut := len(live) / 4
			sys := sc.Model.System()
			departed := make([]int, stations)
			for _, id := range live[cut:] {
				w := serve(s, http.MethodDelete, fmt.Sprintf("/v1/tasks/%d/%d", id.User, id.Index), "")
				if w.Code != http.StatusOK {
					t.Fatalf("DELETE %v: status %d: %s", id, w.Code, w.Body)
				}
				st, _ := sys.StationOf(id.User)
				departed[st]++
				if r.Intn(10) == 0 {
					checkRead(t, s, "departures")
				}
			}
			checkRead(t, s, "departures done")
			for st, sh := range s.shards {
				if departed[st] > 16 && departed[st] > sh.cs.Len() {
					compacted++
					break
				}
			}

			// Departed IDs arrive again, behind the survivors.
			for _, id := range live[cut:][:len(live[cut:])/2] {
				tk := *sc.Tasks.At(0)
				tk.ID = id
				post(t, s, &tk)
			}
			checkRead(t, s, "re-arrivals")

			gone := live[0].User
			if w := serve(s, http.MethodDelete, fmt.Sprintf("/v1/devices/%d", gone), ""); w.Code != http.StatusOK {
				t.Fatalf("device leave: status %d: %s", w.Code, w.Body)
			}
			body = checkRead(t, s, "device left")
			if bytes.Contains(body, []byte(fmt.Sprintf(`{"user":%d,`, gone))) {
				t.Errorf("device %d left but still has rows", gone)
			}
		})
	}
	if compacted == 0 {
		t.Error("no seed departed enough tasks from one shard to compact it")
	}
}

// post streams one task through POST /v1/tasks in process and requires
// acceptance. The task's external source must not be its own device.
func post(t *testing.T, s *server, tk *task.Task) {
	t.Helper()
	if tk.ExternalSource == tk.ID.User {
		tk.ExternalSize, tk.ExternalSource = 0, task.NoExternalSource
	}
	body, err := json.Marshal(docFromTask(tk))
	if err != nil {
		t.Fatal(err)
	}
	if w := serve(s, http.MethodPost, "/v1/tasks", string(body)); w.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/tasks %v: status %d: %s", tk.ID, w.Code, w.Body)
	}
}

// TestReadsComeFromOneSnapshot runs readers, a solver and a mutator at
// once: every read must describe one set of shard results, so its summary
// counts exactly its rows. Run it under -race -count=10.
func TestReadsComeFromOneSnapshot(t *testing.T) {
	sc := testScenario(t, 11, 24, 4, 120)
	s, _ := quietServer(t, sc.Model, 2)
	for i := 0; i < sc.Tasks.Len()/2; i++ {
		post(t, s, sc.Tasks.At(i))
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // mutator: the second half arrives, then departs
		defer wg.Done()
		defer close(done)
		for round := 0; round < 3; round++ {
			for i := sc.Tasks.Len() / 2; i < sc.Tasks.Len(); i++ {
				tk := sc.Tasks.At(i)
				body, _ := json.Marshal(docFromTask(tk))
				if w := serve(s, http.MethodPost, "/v1/tasks", string(body)); w.Code != http.StatusAccepted {
					t.Errorf("arrival %v: status %d", tk.ID, w.Code)
					return
				}
			}
			for i := sc.Tasks.Len() / 2; i < sc.Tasks.Len(); i++ {
				id := sc.Tasks.At(i).ID
				if w := serve(s, http.MethodDelete, fmt.Sprintf("/v1/tasks/%d/%d", id.User, id.Index), ""); w.Code != http.StatusOK {
					t.Errorf("departure %v: status %d", id, w.Code)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // solver
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if w := serve(s, http.MethodPost, "/v1/solve", ""); w.Code != http.StatusOK {
				t.Errorf("solve: status %d", w.Code)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() { // reader
			defer wg.Done()
			for reads := 0; ; reads++ {
				select {
				case <-done:
					if reads > 0 {
						return
					}
				default:
				}
				w := serve(s, http.MethodGet, "/v1/assignments", "")
				var doc assignmentsDoc
				if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil || w.Code != http.StatusOK {
					t.Errorf("read: status %d, %v", w.Code, err)
					return
				}
				if sum := doc.Summary; sum.Tasks != len(doc.Assignments) || sum.Placed+sum.Cancelled != sum.Tasks {
					t.Errorf("read %d: summary tasks %d, placed %d, cancelled %d, but %d rows",
						reads, sum.Tasks, sum.Placed, sum.Cancelled, len(doc.Assignments))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// discardWriter is a ResponseWriter that keeps nothing, so allocation
// counts and benchmarks see the handler's own work only.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// cleanServer preloads tasks generated over a fixed topology of 400
// devices and 20 stations and solves them once, so the shards are clean.
func cleanServer(tb testing.TB, tasks int) *server {
	tb.Helper()
	sc, err := workload.GenerateHolistic(rng.NewSource(3), workload.Params{
		NumDevices: 400, NumStations: 20, NumTasks: tasks,
	})
	if err != nil {
		tb.Fatal(err)
	}
	s, _ := quietServer(tb, sc.Model, 0)
	if err := s.preload(sc.Tasks); err != nil {
		tb.Fatal(err)
	}
	if err := s.solveDirty(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// queryAllocs is the mean allocation count of one request on s.
func queryAllocs(s *server, method, path string) float64 {
	r := httptest.NewRequest(method, path, nil)
	w := &discardWriter{h: http.Header{}}
	return testing.AllocsPerRun(20, func() {
		s.ServeHTTP(w, r)
	})
}

// raceEnabled is set under the race detector, where sync.Pool drops
// pooled values at random and allocation counts vary from run to run.
var raceEnabled bool

// TestQueryAllocsIndependentOfTasks pins that a read's allocation count and
// a clean solve's do not grow with the task count: a read allocates its
// snapshot, its row table and one write buffer, never per row.
func TestQueryAllocsIndependentOfTasks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	small, large := cleanServer(t, 400), cleanServer(t, 4000)
	for _, q := range []struct{ method, path string }{
		{http.MethodGet, "/v1/assignments"},
		{http.MethodPost, "/v1/solve"},
	} {
		a, b := queryAllocs(small, q.method, q.path), queryAllocs(large, q.method, q.path)
		t.Logf("%s %s: %.1f allocations at 400 tasks, %.1f at 4,000", q.method, q.path, a, b)
		if b > a {
			t.Errorf("%s %s: %.1f allocations at 4,000 tasks, %.1f at 400", q.method, q.path, b, a)
		}
	}
}

// BenchmarkAssignments is one GET /v1/assignments on a clean server.
func BenchmarkAssignments(b *testing.B) {
	benchQuery(b, http.MethodGet, "/v1/assignments")
}

// BenchmarkSolveClean is one POST /v1/solve with no dirty shard.
func BenchmarkSolveClean(b *testing.B) {
	benchQuery(b, http.MethodPost, "/v1/solve")
}

func benchQuery(b *testing.B, method, path string) {
	s := cleanServer(b, 4000)
	r := httptest.NewRequest(method, path, nil)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, r)
	}
	if w.code != http.StatusOK {
		b.Fatalf("%s %s: status %d", method, path, w.code)
	}
	b.SetBytes(int64(w.n / b.N))
}

// FuzzHandlers sends one arbitrary request to a small preloaded server:
// no input may panic a handler or draw a 5xx, and an accepted arrival must
// appear in the next GET /v1/assignments. The profiler endpoints under
// /debug/ are left out: they sample for seconds by design.
func FuzzHandlers(f *testing.F) {
	sc, err := workload.GenerateHolistic(rng.NewSource(4), workload.Params{
		NumDevices: 6, NumStations: 2, NumTasks: 8,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(http.MethodPost, "/v1/tasks", `{"user":1,"index":9,"op_bytes":1000,"resource":1,"deadline_s":1}`)
	f.Add(http.MethodGet, "/v1/assignments", "")
	f.Fuzz(func(t *testing.T, method, path, body string) {
		req, err := http.NewRequest(method, "http://mecd"+path, strings.NewReader(body))
		if err != nil {
			t.Skip() // no server would parse this request line
		}
		if strings.HasPrefix(req.URL.Path, "/debug/") {
			t.Skip()
		}
		s, _ := quietServer(t, sc.Model, 0)
		if err := s.preload(sc.Tasks); err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code >= 500 {
			t.Fatalf("%s %q: status %d: %s", method, path, w.Code, w.Body)
		}
		if req.Method != http.MethodPost || req.URL.Path != "/v1/tasks" || w.Code != http.StatusAccepted {
			return
		}
		var td taskDoc // decoded as the handler does: the first JSON value only
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&td); err != nil {
			t.Fatalf("accepted arrival %q does not decode: %v", body, err)
		}
		read := serve(s, http.MethodGet, "/v1/assignments", "")
		row := fmt.Sprintf(`{"user":%d,"index":%d,"subsystem":"`, td.User, td.Index)
		if read.Code != http.StatusOK || !strings.Contains(read.Body.String(), row) {
			t.Fatalf("accepted arrival %q: GET /v1/assignments status %d lacks %s", body, read.Code, row)
		}
	})
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/obs"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

// server is the online assignment service: per-station shards of cluster
// state behind HTTP. Arrivals and departures only mutate their station's
// shard and mark it dirty; /v1/solve and /v1/assignments re-solve exactly
// the dirty shards and merge results in station order, so responses are
// byte-identical at any solver parallelism.
type server struct {
	mux     *http.ServeMux
	m       *costmodel.Model
	logger  *obs.Logger
	reg     *obs.Registry
	workers int

	// topo guards the device presence flags; shard mutexes guard
	// everything per-station.
	topo       sync.RWMutex
	deviceGone []bool

	shards []*shard
}

// shard is one station's mutable state; mu guards every field. A
// published solve is never mutated (each ClusterState.Solve returns a new
// ClusterResult), so a reader may keep using the solved value it copied
// under mu after unlocking.
type shard struct {
	mu    sync.Mutex
	cs    *core.ClusterState
	dirty bool
	last  solved // last solve; current when !dirty
}

// solved is one shard's last solve with its placement counts, so a
// summary sums one pair of scalars per shard instead of walking the
// placements.
type solved struct {
	res               *core.ClusterResult
	placed, cancelled int
}

// view returns the shard's last solve, taken under its lock.
func (sh *shard) view() solved {
	sh.mu.Lock()
	v := sh.last
	sh.mu.Unlock()
	return v
}

func newServer(m *costmodel.Model, reg *obs.Registry, manifest *obs.Manifest, logger *obs.Logger, workers int) (*server, error) {
	sys := m.System()
	s := &server{
		m:          m,
		logger:     logger,
		reg:        reg,
		workers:    workers,
		deviceGone: make([]bool, sys.NumDevices()),
		shards:     make([]*shard, sys.NumStations()),
	}
	if s.workers <= 0 {
		s.workers = len(s.shards)
	}
	opts := &core.LPHTAOptions{Obs: obs.Instruments{Metrics: reg, Log: logger}}
	for st := range s.shards {
		cs, err := core.NewClusterState(m, st, opts)
		if err != nil {
			return nil, err
		}
		s.shards[st] = &shard{cs: cs, dirty: true}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/state", s.handleState)
	mux.HandleFunc("POST /v1/tasks", s.handleTaskArrival)
	mux.HandleFunc("DELETE /v1/tasks/{user}/{index}", s.handleTaskDeparture)
	mux.HandleFunc("POST /v1/devices", s.handleDeviceJoin)
	mux.HandleFunc("DELETE /v1/devices/{id}", s.handleDeviceLeave)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/assignments", s.handleAssignments)
	// Observability surface: /metrics, /metrics.json, /manifest,
	// /debug/pprof, and the index page.
	mux.Handle("/", obs.Handler(reg, manifest))
	s.mux = mux
	return s, nil
}

// maxBodyBytes caps every POST body; a larger one is answered with 413.
const maxBodyBytes = 1 << 20

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	}
	s.mux.ServeHTTP(w, r)
}

// preload streams a task set into the shards before serving, in arena
// order — the same order the batch planner sees, so a subsequent
// /v1/assignments matches batch LP-HTA placement for placement.
func (s *server) preload(ts *task.Set) error {
	sys := s.m.System()
	for i := 0; i < ts.Len(); i++ {
		t := ts.At(i)
		st, err := sys.StationOf(t.ID.User)
		if err != nil {
			return err
		}
		sh := s.shards[st]
		sh.mu.Lock()
		err = sh.cs.AddTask(*t)
		sh.dirty = true
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// writeJSON renders v with a stable field order (struct-driven) and a
// trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorDoc is every non-2xx body.
type errorDoc struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes the request's JSON document into v, refusing unknown
// fields. On failure it writes the error response, 413 for a body over
// maxBodyBytes and 400 otherwise, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "%s document over %d bytes", what, tooBig.Limit)
	} else {
		writeError(w, http.StatusBadRequest, "bad %s document: %v", what, err)
	}
	return false
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{true})
}

// stateDoc is the GET /v1/state body.
type stateDoc struct {
	Stations    int             `json:"stations"`
	Devices     int             `json:"devices"`
	DevicesGone int             `json:"devices_gone"`
	Tasks       int             `json:"tasks"`
	Shards      []shardStateDoc `json:"shards"`
}

type shardStateDoc struct {
	Station int  `json:"station"`
	Tasks   int  `json:"tasks"`
	Dirty   bool `json:"dirty"`
}

func (s *server) handleState(w http.ResponseWriter, r *http.Request) {
	doc := stateDoc{Stations: len(s.shards), Devices: len(s.deviceGone)}
	s.topo.RLock()
	for _, gone := range s.deviceGone {
		if gone {
			doc.DevicesGone++
		}
	}
	s.topo.RUnlock()
	for st, sh := range s.shards {
		sh.mu.Lock()
		d := shardStateDoc{Station: st, Tasks: sh.cs.Len(), Dirty: sh.dirty}
		sh.mu.Unlock()
		doc.Tasks += d.Tasks
		doc.Shards = append(doc.Shards, d)
	}
	writeJSON(w, http.StatusOK, doc)
}

// taskDoc mirrors the scenarioio task encoding, so tasks can be lifted
// from a scenario file straight into POST /v1/tasks.
type taskDoc struct {
	User           int     `json:"user"`
	Index          int     `json:"index"`
	OpBytes        int64   `json:"op_bytes"`
	LocalBytes     int64   `json:"local_bytes"`
	ExternalBytes  int64   `json:"external_bytes"`
	ExternalSource *int    `json:"external_source,omitempty"`
	Resource       float64 `json:"resource"`
	DeadlineS      float64 `json:"deadline_s"`
}

func (td *taskDoc) toTask() task.Task {
	t := task.Task{
		ID:             task.ID{User: td.User, Index: td.Index},
		Kind:           task.Holistic,
		OpSize:         units.ByteSize(td.OpBytes),
		LocalSize:      units.ByteSize(td.LocalBytes),
		ExternalSize:   units.ByteSize(td.ExternalBytes),
		ExternalSource: task.NoExternalSource,
		Resource:       td.Resource,
		Deadline:       units.Duration(td.DeadlineS),
	}
	if td.ExternalSource != nil {
		t.ExternalSource = *td.ExternalSource
	}
	return t
}

func docFromTask(t *task.Task) taskDoc {
	td := taskDoc{
		User:          t.ID.User,
		Index:         t.ID.Index,
		OpBytes:       t.OpSize.Bytes(),
		LocalBytes:    t.LocalSize.Bytes(),
		ExternalBytes: t.ExternalSize.Bytes(),
		Resource:      t.Resource,
		DeadlineS:     t.Deadline.Seconds(),
	}
	if t.HasExternal() {
		src := t.ExternalSource
		td.ExternalSource = &src
	}
	return td
}

// stationOf resolves a device's station, distinguishing "unknown device"
// from "departed device". It returns -1 and writes the error response when
// the task cannot be admitted.
func (s *server) stationOf(w http.ResponseWriter, device int) int {
	st, err := s.m.System().StationOf(device)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown device %d", device)
		return -1
	}
	s.topo.RLock()
	gone := s.deviceGone[device]
	s.topo.RUnlock()
	if gone {
		writeError(w, http.StatusGone, "device %d has left", device)
		return -1
	}
	return st
}

// arrivalDoc is the POST /v1/tasks success body.
type arrivalDoc struct {
	Status  string `json:"status"`
	Station int    `json:"station"`
}

func (s *server) handleTaskArrival(w http.ResponseWriter, r *http.Request) {
	var td taskDoc
	if !decodeBody(w, r, "task", &td) {
		return
	}
	t := td.toTask()
	if err := t.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := s.stationOf(w, t.ID.User)
	if st < 0 {
		return
	}
	if t.HasExternal() {
		if _, err := s.m.System().StationOf(t.ExternalSource); err != nil {
			writeError(w, http.StatusBadRequest, "unknown external source %d", t.ExternalSource)
			return
		}
	}
	sh := s.shards[st]
	sh.mu.Lock()
	err := sh.cs.AddTask(t)
	if err == nil {
		sh.dirty = true
	}
	sh.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.reg.Counter("mecd.arrivals").Inc()
	writeJSON(w, http.StatusAccepted, arrivalDoc{Status: "accepted", Station: st})
}

func pathInt(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	v, err := strconv.Atoi(r.PathValue(name))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad %s %q", name, r.PathValue(name))
		return 0, false
	}
	return v, true
}

func (s *server) handleTaskDeparture(w http.ResponseWriter, r *http.Request) {
	user, ok := pathInt(w, r, "user")
	if !ok {
		return
	}
	index, ok := pathInt(w, r, "index")
	if !ok {
		return
	}
	st, err := s.m.System().StationOf(user)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown device %d", user)
		return
	}
	id := task.ID{User: user, Index: index}
	sh := s.shards[st]
	sh.mu.Lock()
	err = sh.cs.RemoveTask(id)
	if err == nil {
		sh.dirty = true
	}
	sh.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.reg.Counter("mecd.departures").Inc()
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"removed"})
}

// deviceDoc is the POST /v1/devices body (re-join of a provisioned
// device). The topology itself is fixed at boot: joins and leaves toggle a
// provisioned device's presence, they do not grow the system.
type deviceDoc struct {
	ID int `json:"id"`
}

func (s *server) handleDeviceJoin(w http.ResponseWriter, r *http.Request) {
	var dd deviceDoc
	if !decodeBody(w, r, "device", &dd) {
		return
	}
	if _, err := s.m.System().StationOf(dd.ID); err != nil {
		writeError(w, http.StatusNotFound, "unknown device %d (the topology is fixed at boot)", dd.ID)
		return
	}
	s.topo.Lock()
	was := s.deviceGone[dd.ID]
	s.deviceGone[dd.ID] = false
	s.topo.Unlock()
	if was {
		s.reg.Counter("mecd.device_joins").Inc()
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		ID     int    `json:"id"`
	}{"present", dd.ID})
}

func (s *server) handleDeviceLeave(w http.ResponseWriter, r *http.Request) {
	id, ok := pathInt(w, r, "id")
	if !ok {
		return
	}
	st, err := s.m.System().StationOf(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown device %d", id)
		return
	}
	s.topo.Lock()
	was := s.deviceGone[id]
	s.deviceGone[id] = true
	s.topo.Unlock()

	// Cancel everything the device raised; its in-cluster tasks cannot
	// run anywhere once the raising device is gone.
	removed := 0
	sh := s.shards[st]
	sh.mu.Lock()
	for _, tid := range sh.cs.TaskIDs() {
		if tid.User != id {
			continue
		}
		if err := sh.cs.RemoveTask(tid); err == nil {
			removed++
		}
	}
	if removed > 0 {
		sh.dirty = true
	}
	sh.mu.Unlock()
	if !was {
		s.reg.Counter("mecd.device_leaves").Inc()
	}
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		ID      int    `json:"id"`
		Removed int    `json:"removed_tasks"`
	}{"left", id, removed})
}

// solveDirty re-solves every dirty shard over a bounded worker pool and
// returns the first error. Shard results land in shard.last under the shard
// mutex; merge order is always station order, so downstream output does
// not depend on the worker count.
func (s *server) solveDirty() error {
	timer := obs.StartTimer()
	var pending []*shard
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.dirty {
			pending = append(pending, sh)
		} else {
			sh.mu.Unlock()
		}
	}
	// All dirty shards are now locked: arrivals wait while we solve.
	workers := s.workers
	if workers > len(pending) {
		workers = len(pending)
	}
	errs := make([]error, len(pending))
	if workers <= 1 {
		for i, sh := range pending {
			errs[i] = sh.solveLocked()
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					errs[i] = pending[i].solveLocked()
				}
			}()
		}
		for i := range pending {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, sh := range pending {
		sh.mu.Unlock()
	}
	if len(pending) > 0 {
		s.reg.Counter("mecd.solves").Inc()
		s.reg.Counter("mecd.solved_shards").Add(int64(len(pending)))
		s.reg.Histogram("mecd.solve_seconds", obs.TimeBuckets).Observe(timer.Seconds())
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (sh *shard) solveLocked() error {
	res, err := sh.cs.Solve()
	if err != nil {
		return err
	}
	v := solved{res: res}
	for _, p := range res.Placements {
		if p.Level == costmodel.SubsystemNone {
			v.cancelled++
		} else {
			v.placed++
		}
	}
	sh.last = v
	sh.dirty = false
	return nil
}

// solveDoc is the POST /v1/solve body: the merged Theorem 2 quantities,
// accumulated in station order.
type solveDoc struct {
	Tasks           int     `json:"tasks"`
	Placed          int     `json:"placed"`
	Cancelled       int     `json:"cancelled"`
	LPObjectiveJ    float64 `json:"lp_objective_joules"`
	RoundedEnergyJ  float64 `json:"rounded_energy_joules"`
	DeltaJ          float64 `json:"delta_joules"`
	FractionalTasks int     `json:"fractional_tasks"`
	PreCancelled    int     `json:"pre_cancelled"`
}

// add accumulates one shard's solve. Callers add shards in station order,
// so the float sums do not depend on which worker solved which shard.
func (doc *solveDoc) add(v solved) {
	if v.res == nil {
		return
	}
	doc.Tasks += len(v.res.Placements)
	doc.Placed += v.placed
	doc.Cancelled += v.cancelled
	doc.LPObjectiveJ += v.res.LPObjective.Joules()
	doc.RoundedEnergyJ += v.res.RoundedEnergy.Joules()
	doc.DeltaJ += v.res.Delta.Joules()
	doc.FractionalTasks += v.res.FractionalTasks
	doc.PreCancelled += v.res.PreCancelled
}

// merged sums every shard's last solve.
func (s *server) merged() solveDoc {
	var doc solveDoc
	for _, sh := range s.shards {
		doc.add(sh.view())
	}
	return doc
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if err := s.solveDirty(); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.merged())
}

// assignmentDoc is one row of GET /v1/assignments.
type assignmentDoc struct {
	User      int    `json:"user"`
	Index     int    `json:"index"`
	Subsystem string `json:"subsystem"`
}

// assignmentsDoc is the GET /v1/assignments body. handleAssignments
// writes it without encoding/json; the type decodes it in runSelfcheck and
// the tests.
type assignmentsDoc struct {
	Assignments []assignmentDoc `json:"assignments"`
	Summary     solveDoc        `json:"summary"`
}

// handleAssignments writes every task's placement, sorted by task ID so the
// bytes are independent of shard solve order and worker count, and the
// summary, both from one snapshot of the shards' last solves.
func (s *server) handleAssignments(w http.ResponseWriter, r *http.Request) {
	if err := s.solveDirty(); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	snap := make([]solved, len(s.shards))
	var sum solveDoc
	for i, sh := range s.shards {
		snap[i] = sh.view()
		sum.add(snap[i])
	}
	summary, err := json.Marshal(sum)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	rows := sortedRows(snap, s.m.System().NumDevices())

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	buf := make([]byte, 0, rowBuf)
	buf = append(buf, `{"assignments":[`...)
	for i, p := range rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"user":`...)
		buf = strconv.AppendInt(buf, int64(p.ID.User), 10)
		buf = append(buf, `,"index":`...)
		buf = strconv.AppendInt(buf, int64(p.ID.Index), 10)
		buf = append(buf, `,"subsystem":"`...)
		buf = append(buf, p.Level.String()...)
		buf = append(buf, `"}`...)
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return // the client is gone
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, `],"summary":`...)
	buf = append(buf, summary...)
	buf = append(buf, "}\n"...)
	_, _ = w.Write(buf) // nothing to report a failed write to
}

// The row encoder writes its buffer out after the row that takes it past
// flushAt. A row is under 100 bytes, so rowBuf holds the rows between two
// writes and a read's buffer does not grow with its row count.
const (
	flushAt = 32 << 10
	rowBuf  = flushAt + 128
)

// sortedRows returns the snapshot's placements ordered by (user, index)
// without a comparison sort over all of them. Every device's tasks live in
// one shard, so a counting pass over the users (all below numDevices)
// places each row in its device's run, and each run, one device's few
// tasks in arrival order, is then insertion-sorted by index.
func sortedRows(snap []solved, numDevices int) []core.ClusterPlacement {
	// pos[u] counts device u-1's rows, then becomes the first row of
	// device u, then, once every row is placed, one past its last.
	pos := make([]int, numDevices+1)
	for _, v := range snap {
		if v.res != nil {
			for _, p := range v.res.Placements {
				pos[p.ID.User+1]++
			}
		}
	}
	for u := 1; u <= numDevices; u++ {
		pos[u] += pos[u-1]
	}
	rows := make([]core.ClusterPlacement, pos[numDevices])
	for _, v := range snap {
		if v.res != nil {
			for _, p := range v.res.Placements {
				rows[pos[p.ID.User]] = p
				pos[p.ID.User]++
			}
		}
	}
	lo := 0
	for _, hi := range pos[:numDevices] {
		for i := lo + 1; i < hi; i++ {
			p := rows[i]
			j := i
			for ; j > lo && rows[j-1].ID.Index > p.ID.Index; j-- {
				rows[j] = rows[j-1]
			}
			rows[j] = p
		}
		lo = hi
	}
	return rows
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"dsmec/internal/task"
)

var smallSpec = workloadSpec{name: "small", devices: 40, stations: 4, tasks: 200}

var smallTraffic = func() traffic {
	tr := serviceTraffic
	tr.arrivalRate = 1000
	return tr
}()

func smallSchedule(t *testing.T, seed int64, span time.Duration) (*deployment, *schedule) {
	t.Helper()
	dep, err := generate(smallSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildSchedule(seed, smallTraffic, span, smallSpec.devices, dep.preload)
	if err != nil {
		t.Fatal(err)
	}
	return dep, s
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	_, a := smallSchedule(t, 7, 3*time.Second)
	_, b := smallSchedule(t, 7, 3*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	_, c := smallSchedule(t, 8, 3*time.Second)
	if reflect.DeepEqual(a.ops, c.ops) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
}

// daemonModel is the part of mecd's state the schedule must respect.
type daemonModel struct {
	live map[task.ID]bool
	away map[int]bool
	seq  []task.ID // live tasks in arrival order
}

func newDaemonModel(preload []*task.Task) *daemonModel {
	m := &daemonModel{live: map[task.ID]bool{}, away: map[int]bool{}}
	for _, t := range preload {
		m.live[t.ID] = true
		m.seq = append(m.seq, t.ID)
	}
	return m
}

// apply returns the status mecd would answer o with.
func (m *daemonModel) apply(o *op) int {
	switch o.kind {
	case opArrive:
		if m.away[o.id.User] {
			return http.StatusGone
		}
		if m.live[o.id] {
			return http.StatusConflict
		}
		m.live[o.id] = true
		m.seq = append(m.seq, o.id)
		return http.StatusAccepted
	case opDepart:
		if !m.live[o.id] {
			return http.StatusNotFound
		}
		delete(m.live, o.id)
	case opLeave:
		if m.away[o.id.User] {
			return http.StatusConflict
		}
		m.away[o.id.User] = true
		for id := range m.live {
			if id.User == o.id.User {
				delete(m.live, id)
			}
		}
	case opJoin:
		if !m.away[o.id.User] {
			return http.StatusConflict
		}
		delete(m.away, o.id.User)
	}
	return http.StatusOK
}

func (m *daemonModel) survivors() []task.ID {
	var out []task.ID
	for _, id := range m.seq {
		if m.live[id] {
			out = append(out, id)
		}
	}
	return out
}

func TestScheduleBookkeeping(t *testing.T) {
	span := 5 * time.Second
	dep, s := smallSchedule(t, 3, span)
	m := newDaemonModel(dep.preload)
	counts := map[opKind]int{}
	for i := range s.ops {
		o := &s.ops[i]
		if i > 0 && o.at < s.ops[i-1].at {
			t.Fatalf("op %d at %v precedes op %d at %v", i, o.at, i-1, s.ops[i-1].at)
		}
		if o.at < 0 || o.at > span {
			t.Fatalf("op %d at %v outside the %v phase", i, o.at, span)
		}
		if got := m.apply(o); got != o.wantStatus() {
			t.Fatalf("op %d (%s %v at %v) would get %d, schedule expects %d", i, o.kind, o.id, o.at, got, o.wantStatus())
		}
		if o.kind == opDepart {
			next := s.ops[i+1]
			if next.kind != opArrive || next.at != o.at || next.id.User != o.id.User {
				t.Fatalf("departure %d not paired with an arrival from its device at the same time", i)
			}
		}
		counts[o.kind]++
	}
	if len(m.away) != 0 {
		t.Errorf("devices %v still away at the end", m.away)
	}
	if !reflect.DeepEqual(m.survivors(), s.survivors) {
		t.Error("survivors differ from a replay of the schedule")
	}
	if counts[opArrive] != s.arrivals || counts[opDepart] != s.departures || s.arrivals != s.departures {
		t.Errorf("arrivals %d/%d, departures %d/%d", counts[opArrive], s.arrivals, counts[opDepart], s.departures)
	}
	if got, want := counts[opSolve], int(span/smallTraffic.solveEvery); got != want {
		t.Errorf("%d solves, want %d", got, want)
	}
	if got, want := counts[opRead], int(span/smallTraffic.readEvery); got != want {
		t.Errorf("%d reads, want %d", got, want)
	}
	if counts[opLeave] != 3 || counts[opJoin] != 3 {
		t.Errorf("%d leaves and %d joins, want 3 each", counts[opLeave], counts[opJoin])
	}
	if rate := float64(s.arrivals) / span.Seconds(); rate < 0.9*smallTraffic.arrivalRate || rate > 1.1*smallTraffic.arrivalRate {
		t.Errorf("arrival rate %.0f/s, want about %.0f/s", rate, smallTraffic.arrivalRate)
	}
}

// TestDriveKeepsMutationOrder plays a schedule against a fake daemon that
// enforces the model's state rules: every request must get its expected
// status, which holds only if mutations reach the daemon in schedule
// order, and latency must run from the intended send time.
func TestDriveKeepsMutationOrder(t *testing.T) {
	dep, s := smallSchedule(t, 5, 1500*time.Millisecond)
	m := newDaemonModel(dep.preload)
	var mu sync.Mutex
	var got []task.ID
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o := op{}
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/tasks":
			var td taskDoc
			if err := json.NewDecoder(r.Body).Decode(&td); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			o = op{kind: opArrive, id: task.ID{User: td.User, Index: td.Index}}
		case r.Method == http.MethodDelete && len(r.URL.Path) > len("/v1/tasks/") && r.URL.Path[:len("/v1/tasks/")] == "/v1/tasks/":
			var u, i int
			fmt.Sscanf(r.URL.Path, "/v1/tasks/%d/%d", &u, &i)
			o = op{kind: opDepart, id: task.ID{User: u, Index: i}}
		case r.Method == http.MethodDelete:
			u, _ := strconv.Atoi(r.URL.Path[len("/v1/devices/"):])
			o = op{kind: opLeave, id: task.ID{User: u}}
		case r.Method == http.MethodPost && r.URL.Path == "/v1/devices":
			var dd struct{ ID int }
			_ = json.NewDecoder(r.Body).Decode(&dd)
			o = op{kind: opJoin, id: task.ID{User: dd.ID}}
		default:
			w.WriteHeader(http.StatusOK) // solve, read
			return
		}
		mu.Lock()
		status := m.apply(&o)
		got = append(got, o.id)
		mu.Unlock()
		w.WriteHeader(status)
	}))
	defer hs.Close()

	results := drive(context.Background(), hs.URL, s.ops)
	var want []task.ID
	for i := range s.ops {
		o, r := &s.ops[i], &results[i]
		if r.failed(o) {
			t.Fatalf("op %d (%s %v): status %d, error %v", i, o.kind, o.id, r.status, r.err)
		}
		if r.done < o.at || r.late < 0 || r.sent < o.at {
			t.Fatalf("op %d: intended %v, sent %v, done %v, late %v", i, o.at, r.sent, r.done, r.late)
		}
		if lat := r.latency(o); lat != (r.done-o.at).Seconds()*1e3 {
			t.Fatalf("op %d: latency %g ms not measured from the intended send time", i, lat)
		}
		if o.kind.mutation() {
			want = append(want, o.id)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("mutations reached the daemon out of schedule order")
	}
	if !reflect.DeepEqual(m.survivors(), s.survivors) {
		t.Error("the daemon's survivors differ from the schedule's")
	}
}

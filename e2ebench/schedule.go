package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"dsmec/internal/rng"
	"dsmec/internal/task"
)

// traffic is the service phase's open-loop load: requests go out on the
// schedule whatever the daemon's state, like independent users.
type traffic struct {
	arrivalRate float64       // Poisson task arrivals per second, each paired with a FIFO departure
	solveEvery  time.Duration // POST /v1/solve period
	readEvery   time.Duration // GET /v1/assignments period
	churnEvery  time.Duration // one device leaves this often and rejoins this long after
}

// serviceTraffic is the load every workload's service phase carries, at
// the workload's own arrival rate. A solve every 10 ms gives the 1,000
// samples p99 needs in a 10 s phase.
var serviceTraffic = traffic{
	solveEvery: 10 * time.Millisecond,
	readEvery:  500 * time.Millisecond,
	churnEvery: time.Second,
}

type opKind uint8

const (
	opArrive opKind = iota
	opDepart
	opLeave
	opJoin
	opSolve
	opRead
)

var opNames = [...]string{"arrive", "depart", "leave", "join", "solve", "read"}

func (k opKind) String() string { return opNames[k] }

// mutation reports whether the op changes the daemon's state. Mutations go
// out in schedule order on one connection, so the daemon sees every
// device's requests, and every arrival, in the order the schedule lists.
func (k opKind) mutation() bool { return k <= opJoin }

// op is one scheduled request.
type op struct {
	at   time.Duration // intended send time, from the start of the service phase
	kind opKind
	id   task.ID // arrive, depart: the task; leave, join: id.User is the device
	body []byte  // arrive: the task document; join: the device document
}

// wantStatus is the only status a correct daemon answers op with: the
// schedule never targets an absent task or an away device.
func (o *op) wantStatus() int {
	if o.kind == opArrive {
		return http.StatusAccepted
	}
	return http.StatusOK
}

// schedule is a service phase computed up front from the seed, with the
// task population it leaves behind.
type schedule struct {
	ops        []op
	arrived    []*task.Task // every arriving task, in arrival order
	survivors  []task.ID    // live after the last op, in arrival order
	arrivals   int
	departures int
}

// taskDoc is mecd's POST /v1/tasks body.
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

func encodeTask(t *task.Task) ([]byte, error) {
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
	return json.Marshal(td)
}

// buildSchedule lays out span of traffic over a daemon preloaded with
// preload. Each arrival is paired with the departure of the oldest live
// task and re-submits that task's content from the same device under a new
// index, so every cluster keeps its preloaded mix of sizes and deadlines
// and the run measures steady churn, not a drifting population. A leaving
// device takes its live tasks with it (the daemon cancels them), so no
// request targets an absent task or an away device.
func buildSchedule(seed int64, tr traffic, span time.Duration, devices int, preload []*task.Task) (*schedule, error) {
	if tr.arrivalRate <= 0 {
		return nil, fmt.Errorf("arrival rate %g/s is not positive", tr.arrivalRate)
	}
	r := rng.NewSource(seed).Stream("e2ebench.schedule")
	type event struct {
		at   time.Duration
		kind opKind
	}
	var events []event
	// Joins precede leaves at equal times, so at most one device is away.
	for t := 2 * tr.churnEvery; t < span; t += tr.churnEvery {
		events = append(events, event{t, opJoin})
	}
	for t := tr.churnEvery; t+tr.churnEvery < span; t += tr.churnEvery {
		events = append(events, event{t, opLeave})
	}
	for t := tr.solveEvery; t <= span; t += tr.solveEvery {
		events = append(events, event{t, opSolve})
	}
	for t := tr.readEvery; t <= span; t += tr.readEvery {
		events = append(events, event{t, opRead})
	}
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / tr.arrivalRate * float64(time.Second))
		if t >= span {
			break
		}
		events = append(events, event{t, opArrive})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	s := &schedule{}
	content := make(map[task.ID]*task.Task, len(preload))
	fifo := make([]task.ID, 0, len(preload))
	alive := make(map[task.ID]bool, len(preload))
	byDevice := make(map[int][]task.ID)
	nextIndex := make(map[int]int)
	for _, t := range preload {
		content[t.ID] = t
		fifo = append(fifo, t.ID)
		alive[t.ID] = true
		byDevice[t.ID.User] = append(byDevice[t.ID.User], t.ID)
		nextIndex[t.ID.User] = max(nextIndex[t.ID.User], t.ID.Index+1)
	}
	head := 0
	away := map[int]bool{}
	var awayQueue []int
	for _, ev := range events {
		switch ev.kind {
		case opArrive:
			for head < len(fifo) && !alive[fifo[head]] {
				head++
			}
			if head == len(fifo) {
				return nil, errors.New("no live task left to depart")
			}
			gone := fifo[head]
			head++
			delete(alive, gone)
			s.ops = append(s.ops, op{at: ev.at, kind: opDepart, id: gone})
			s.departures++

			t := *content[gone]
			t.ID.Index = nextIndex[t.ID.User]
			nextIndex[t.ID.User]++
			body, err := encodeTask(&t)
			if err != nil {
				return nil, err
			}
			s.ops = append(s.ops, op{at: ev.at, kind: opArrive, id: t.ID, body: body})
			s.arrived = append(s.arrived, &t)
			s.arrivals++
			content[t.ID] = &t
			fifo = append(fifo, t.ID)
			alive[t.ID] = true
			byDevice[t.ID.User] = append(byDevice[t.ID.User], t.ID)
		case opLeave:
			d := r.Intn(devices)
			for away[d] {
				d = r.Intn(devices)
			}
			away[d] = true
			awayQueue = append(awayQueue, d)
			for _, id := range byDevice[d] {
				delete(alive, id)
			}
			delete(byDevice, d)
			s.ops = append(s.ops, op{at: ev.at, kind: opLeave, id: task.ID{User: d}})
		case opJoin:
			d := awayQueue[0]
			awayQueue = awayQueue[1:]
			delete(away, d)
			body := []byte(fmt.Sprintf(`{"id":%d}`, d))
			s.ops = append(s.ops, op{at: ev.at, kind: opJoin, id: task.ID{User: d}, body: body})
		default:
			s.ops = append(s.ops, op{at: ev.at, kind: ev.kind})
		}
	}
	for _, id := range fifo[head:] {
		if alive[id] {
			s.survivors = append(s.survivors, id)
		}
	}
	return s, nil
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// traceLog keeps a traced run's spans in memory and writes them out as one
// Chrome trace (chrome://tracing, Perfetto) when the run ends. A nil
// *traceLog records nothing, so untraced runs pay nothing.
type traceLog struct {
	start  time.Time
	events []traceEvent
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs from the run start
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace tracks: set-up on 1, batch passes on 2, the daemon's connections
// on 3 (1 mutations, 2 solves, 3 reads).
const (
	pidSetup   = 1
	pidPasses  = 2
	pidService = 3
)

func (t *traceLog) add(name string, pid, tid int, from, to time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: name, Ph: "X", Pid: pid, Tid: tid, Args: args,
		Ts:  float64(from.Sub(t.start).Microseconds()),
		Dur: float64(to.Sub(from).Microseconds()),
	})
}

func (t *traceLog) span(name string, pid, tid int, from, to time.Time) {
	t.add(name, pid, tid, from, to, nil)
}

// pass records a traced batch pass spawned at spawned, with its timed
// calls as children.
func (t *traceLog) pass(spawned time.Time, rep *passReport) {
	if t == nil {
		return
	}
	at := func(s float64) time.Time { return spawned.Add(time.Duration(s * float64(time.Second))) }
	t.add("pass", pidPasses, 1, spawned, at(rep.PassS), map[string]any{"digest": rep.Digest})
	for _, c := range rep.Calls {
		t.span(c.Name, pidPasses, 1, at(c.StartS), at(c.StartS+c.DurS))
	}
}

// request records one service request as sent and answered.
func (t *traceLog) request(serviceStart time.Time, o *op, r *opResult) {
	if t == nil {
		return
	}
	tid := 3
	switch {
	case o.kind.mutation():
		tid = 1
	case o.kind == opSolve:
		tid = 2
	}
	t.add(o.kind.String(), pidService, tid, serviceStart.Add(r.sent), serviceStart.Add(r.done),
		map[string]any{"status": r.status, "late_us": r.late.Microseconds(), "intended_us": o.at.Microseconds()})
}

func (t *traceLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": t.events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

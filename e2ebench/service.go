package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dsmec/internal/obs"
)

// daemon is one running mecd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, set before exited closes
}

// listenWatcher takes mecd's stdout and hands over the URL from its first
// line, "mecd listening on <url>".
type listenWatcher struct {
	mu   sync.Mutex
	buf  []byte
	url  chan string
	done bool
}

func (w *listenWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		if url, ok := strings.CutPrefix(string(w.buf[:i]), "mecd listening on "); ok {
			w.url <- url
		}
		close(w.url)
		w.done = true
	}
	return len(p), nil
}

// startDaemon execs mecd on the scenario document and returns once it
// listens on a loopback port.
func startDaemon(ctx context.Context, bin, doc string) (*daemon, error) {
	w := &listenWatcher{url: make(chan string, 1)}
	cmd := exec.Command(bin, "-load", doc, "-addr", "127.0.0.1:0", "-log-level", "warn")
	cmd.Stdout = w
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mecd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	timeout := time.NewTimer(2 * time.Minute)
	defer timeout.Stop()
	select {
	case url, ok := <-w.url:
		if ok {
			d.base = url
			return d, nil
		}
		d.close()
		return nil, errors.New("mecd: unexpected first line on stdout")
	case <-d.exited:
		return nil, fmt.Errorf("mecd exited during start-up: %v", d.err)
	case <-ctx.Done():
		d.close()
		return nil, ctx.Err()
	case <-timeout.C:
		d.close()
		return nil, errors.New("mecd did not listen within 2m")
	}
}

// close stops the daemon with SIGTERM, kills it if it is still running 10 s
// later, and returns once it has been waited for. Calling it again is a
// no-op.
func (d *daemon) close() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// newClient returns an HTTP client that keeps a single loopback connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// call sends one request and returns the status and, when keep is set, the
// body; otherwise the body is drained and dropped.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, keep bool) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if !keep {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path from the daemon into v, requiring 200.
func (d *daemon) getJSON(ctx context.Context, c *http.Client, path string, v any) error {
	status, b, err := call(ctx, c, http.MethodGet, d.base+path, nil, true)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, b)
	}
	return json.Unmarshal(b, v)
}

// solveDoc is the part of mecd's POST /v1/solve body the benchmark checks.
type solveDoc struct {
	Tasks int `json:"tasks"`
}

// solve posts /v1/solve and returns the task count the daemon solved over.
func (d *daemon) solve(ctx context.Context, c *http.Client) (int, error) {
	status, b, err := call(ctx, c, http.MethodPost, d.base+"/v1/solve", nil, true)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("POST /v1/solve: status %d: %s", status, b)
	}
	var doc solveDoc
	err = json.Unmarshal(b, &doc)
	return doc.Tasks, err
}

// assignmentsDoc is mecd's GET /v1/assignments body.
type assignmentsDoc struct {
	Assignments []struct {
		User      int    `json:"user"`
		Index     int    `json:"index"`
		Subsystem string `json:"subsystem"`
	} `json:"assignments"`
}

// memStats is the part of mecd's /debug/vars the benchmark reads.
type memStats struct {
	Memstats struct {
		TotalAlloc   uint64 `json:"TotalAlloc"`
		NumGC        uint32 `json:"NumGC"`
		PauseTotalNs uint64 `json:"PauseTotalNs"`
	} `json:"memstats"`
}

// daemonSnapshot is the daemon's registry and runtime counters at one
// moment.
type daemonSnapshot struct {
	reg obs.Snapshot
	mem memStats
}

func (d *daemon) snapshot(ctx context.Context, c *http.Client) (daemonSnapshot, error) {
	var s daemonSnapshot
	if err := d.getJSON(ctx, c, "/metrics.json", &s.reg); err != nil {
		return s, err
	}
	return s, d.getJSON(ctx, c, "/debug/vars", &s.mem)
}

// opResult is how one scheduled request went. Times are from the start of
// the service phase.
type opResult struct {
	late    time.Duration // dispatch time minus intended time: the generator's own lag
	sent    time.Duration
	done    time.Duration
	status  int
	err     error
	overlap bool // a mutation sent while a solve or read was in flight
}

// failed reports whether the request errored or got another status than
// the schedule expects.
func (r *opResult) failed(o *op) bool { return r.err != nil || r.status != o.wantStatus() }

// latency is the request's time from its intended send time to its
// response, so a stall also counts against the requests queued behind it.
// A failed request never meets a latency limit.
func (r *opResult) latency(o *op) float64 {
	if r.failed(o) {
		return failedLatency
	}
	return (r.done - o.at).Seconds() * 1e3
}

// drive plays the schedule against the daemon open-loop from three
// connections, one per request class, like three independent client
// populations: mutations in schedule order, solves, and reads.
func drive(ctx context.Context, base string, ops []op) []opResult {
	results := make([]opResult, len(ops))
	// Each queue can hold every op, so dispatch never blocks and its
	// lateness measures the generator alone.
	mutations := make(chan int, len(ops))
	solves := make(chan int, len(ops))
	reads := make(chan int, len(ops))
	var queriesInFlight atomic.Int32
	var wg sync.WaitGroup
	start := time.Now()
	worker := func(q <-chan int, query bool) {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		for i := range q {
			o, r := &ops[i], &results[i]
			if query {
				queriesInFlight.Add(1)
			} else {
				r.overlap = queriesInFlight.Load() > 0
			}
			r.sent = time.Since(start)
			r.status, _, r.err = call(ctx, c, o.method(), base+o.path(), o.body, false)
			r.done = time.Since(start)
			if query {
				queriesInFlight.Add(-1)
			}
		}
	}
	wg.Add(3)
	go worker(mutations, false)
	go worker(solves, true)
	go worker(reads, true)
	for i := range ops {
		if wait := ops[i].at - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			results[i].err = ctx.Err()
			continue
		}
		results[i].late = time.Since(start) - ops[i].at
		switch {
		case ops[i].kind.mutation():
			mutations <- i
		case ops[i].kind == opSolve:
			solves <- i
		default:
			reads <- i
		}
	}
	close(mutations)
	close(solves)
	close(reads)
	wg.Wait()
	return results
}

func (o *op) method() string {
	switch o.kind {
	case opArrive, opJoin, opSolve:
		return http.MethodPost
	case opRead:
		return http.MethodGet
	default:
		return http.MethodDelete
	}
}

func (o *op) path() string {
	switch o.kind {
	case opArrive:
		return "/v1/tasks"
	case opDepart:
		return fmt.Sprintf("/v1/tasks/%d/%d", o.id.User, o.id.Index)
	case opLeave:
		return fmt.Sprintf("/v1/devices/%d", o.id.User)
	case opJoin:
		return "/v1/devices"
	case opSolve:
		return "/v1/solve"
	default:
		return "/v1/assignments"
	}
}

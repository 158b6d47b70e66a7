package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// The three read routes the open loop rotates through.
const (
	routeStatus = iota
	routeForecast
	routePlan
	numRoutes
)

var routeNames = [numRoutes]string{"status", "forecast", "plan"}

// read is one open-loop request: due when the schedule said, sent when the
// single connection was free, done when the body had been read.
type read struct {
	route           int
	due, sent, done time.Time
	ok              bool
}

// serveResult is what the serve phase measured.
type serveResult struct {
	window        time.Duration // the scheduled open-loop window
	wall          time.Duration // how long the daemon actually ran
	reads         []read
	blocks        int // reads are judged in this many equal blocks
	failedReads   int
	firstFailure  string
	hoursAdvanced int

	// idleUS holds closed-loop latencies per route with the stepper
	// stopped (traced runs only).
	idleUS [numRoutes][]float64

	checkpointS, resumeS              []float64
	failedSnapshots                   int
	checkpointedMinute, resumedMinute int
}

// latencyMS returns the q-quantile of read latency (from each read's due
// time): the median over the run's blocks of each block's quantile.
func (s *serveResult) latencyMS(q float64) float64 {
	per := (len(s.reads) + s.blocks - 1) / s.blocks
	var qs []float64
	for lo := 0; lo < len(s.reads); lo += per {
		hi := min(lo+per, len(s.reads))
		var lat []float64
		for _, r := range s.reads[lo:hi] {
			if r.ok {
				lat = append(lat, float64(r.done.Sub(r.due).Nanoseconds())/1e6)
			}
		}
		qs = append(qs, quantile(lat, q))
	}
	return median(qs)
}

// latenessMS is how late each request left versus its due time.
func (s *serveResult) latenessMS(from, to time.Duration) []float64 {
	var out []float64
	if len(s.reads) == 0 {
		return out
	}
	start := s.reads[0].due
	for _, r := range s.reads {
		if at := r.due.Sub(start); at >= from && at < to {
			out = append(out, float64(r.sent.Sub(r.due).Nanoseconds())/1e6)
		}
	}
	return out
}

func (s *serveResult) fail(format string, args ...any) {
	if s.firstFailure == "" {
		s.firstFailure = fmt.Sprintf(format, args...)
	}
}

// reader issues the benchmark's GET requests over one connection and
// checks each body against the fleet's shape.
type reader struct {
	client  *http.Client
	base    string
	homes   int
	devices int
}

func (rd *reader) url(route, home int) string {
	switch route {
	case routeForecast:
		return fmt.Sprintf("%s/v1/forecast/%d", rd.base, home)
	case routePlan:
		return fmt.Sprintf("%s/v1/plan/%d", rd.base, home)
	}
	return rd.base + "/v1/fleet/status"
}

// get fetches one route; the returned time is when the body was complete.
// Validation of the body happens after that instant.
func (rd *reader) get(route, home int) (done time.Time, err error) {
	resp, err := rd.client.Get(rd.url(route, home))
	if err != nil {
		return time.Now(), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done = time.Now()
	if err != nil {
		return done, err
	}
	if resp.StatusCode != http.StatusOK {
		return done, fmt.Errorf("%s: status %d: %s", rd.url(route, home), resp.StatusCode, body)
	}
	return done, rd.validate(route, body)
}

func (rd *reader) validate(route int, body []byte) error {
	switch route {
	case routeStatus:
		var st serve.FleetStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("status body: %w", err)
		}
		if st.Homes != rd.homes {
			return fmt.Errorf("status reports %d homes, want %d", st.Homes, rd.homes)
		}
	case routeForecast:
		var fc struct {
			Forecasts []core.DeviceForecast `json:"forecasts"`
		}
		if err := json.Unmarshal(body, &fc); err != nil {
			return fmt.Errorf("forecast body: %w", err)
		}
		if len(fc.Forecasts) != rd.devices || len(fc.Forecasts[0].PredKW) != 60 {
			return fmt.Errorf("forecast body has %d devices, want %d × 60 minutes", len(fc.Forecasts), rd.devices)
		}
	case routePlan:
		var pl struct {
			Plans []core.DevicePlan `json:"plans"`
		}
		if err := json.Unmarshal(body, &pl); err != nil {
			return fmt.Errorf("plan body: %w", err)
		}
		if len(pl.Plans) != rd.devices || len(pl.Plans[0].Actions) != 60 {
			return fmt.Errorf("plan body has %d devices, want %d × 60 minutes", len(pl.Plans), rd.devices)
		}
	}
	return nil
}

// servePhase stands the daemon up over the engine on a loopback server and
// reads through its API over one connection. The serve workload reads in an
// open loop while Daemon.Run steps, then stops the stepper and times
// POST /v1/checkpoint and core.ResumeEngine; a batch workload reads the
// finished fleet in a closed loop. The engine is idle when it returns.
func servePhase(w workload, eng *core.Engine, o runOpts, tr *tracer) (*serveResult, error) {
	sv := &serveResult{blocks: 1}
	opts := serve.Options{
		StepInterval: stepIntervalMS * time.Millisecond,
		// Rotation would put snapshot writes inside the read window; the
		// benchmark times checkpoints on their own afterwards.
		CheckpointEvery: 1 << 30,
		Log:             log.New(io.Discard, "", 0),
	}
	if w.openLoop() {
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return nil, fmt.Errorf("bench: checkpoint directory: %w", err)
		}
		opts.CheckpointPath = filepath.Join(o.OutDir, "checkpoint-"+w.Name+".pfdr")
		defer os.Remove(opts.CheckpointPath)
	}
	d := serve.New(eng, nil, opts)
	mux := http.NewServeMux()
	d.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	rd := &reader{
		client:  &http.Client{Transport: transport, Timeout: 10 * time.Second},
		base:    srv.URL,
		homes:   w.Config.Homes,
		devices: w.Config.DevicesPerHome,
	}

	// One untimed request per route opens the connection and warms the
	// handlers before anything is timed.
	for route := 0; route < numRoutes; route++ {
		if _, err := rd.get(route, 0); err != nil {
			return nil, fmt.Errorf("bench: warm-up read: %w", err)
		}
	}

	if w.openLoop() {
		if err := openLoop(sv, d, rd, eng, o, tr); err != nil {
			return nil, err
		}
	} else {
		sv.blocks = closedLoopBlocks
		closedLoop(sv, rd, closedLoopBlocks*int(o.Seconds*closedLoopRate), tr)
	}

	if o.Trace {
		calls := 200
		if o.Quick {
			calls = 5
		}
		id := tr.begin("serve.idle_reads", "")
		for route := 0; route < numRoutes; route++ {
			for i := 0; i < 20+calls; i++ {
				t := time.Now()
				done, err := rd.get(route, i%rd.homes)
				if err != nil {
					return nil, fmt.Errorf("bench: idle read: %w", err)
				}
				if i >= 20 {
					sv.idleUS[route] = append(sv.idleUS[route], float64(done.Sub(t).Nanoseconds())/1e3)
				}
			}
		}
		tr.end(id)
	}

	if w.openLoop() {
		checkpointPhase(sv, rd, eng, opts.CheckpointPath, o, tr)
	}
	return sv, nil
}

// issue sends read i (routes rotate, homes rotate under them) and records
// it; due is the instant its latency counts from.
func (sv *serveResult) issue(rd *reader, i int, due time.Time, tr *tracer) {
	r := read{route: i % numRoutes, due: due, sent: time.Now()}
	done, err := rd.get(r.route, (i/numRoutes)%rd.homes)
	r.done, r.ok = done, err == nil
	if err != nil {
		sv.failedReads++
		sv.fail("read %d: %v", i, err)
	}
	tr.add("serve.request", routeNames[r.route], r.sent, r.done)
	sv.reads = append(sv.reads, r)
}

// openLoop runs Daemon.Run and, beside it, -seconds of reads at
// openLoopRate: read i is due at t0 + i/rate whatever happened to the ones
// before it, and is timed from that instant.
func openLoop(sv *serveResult, d *serve.Daemon, rd *reader, eng *core.Engine, o runOpts, tr *tracer) error {
	sv.window = time.Duration(o.Seconds * float64(time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	startMinute := eng.Minute()
	id := tr.begin("serve.window", "")
	t0 := time.Now()
	go func() { runErr <- d.Run(ctx) }()
	n := int(o.Seconds * openLoopRate)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * time.Second / openLoopRate)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sv.issue(rd, i, due, tr)
	}
	cancel()
	err := <-runErr
	sv.wall = time.Since(t0)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("bench: daemon: %w", err)
	}
	// The stepper has exited, so the engine is ours to read again.
	sv.hoursAdvanced = (eng.Minute() - startMinute) / 60
	return nil
}

// closedLoop sends n reads back to back: each leaves when the previous one
// has been answered, and is timed from when it left.
func closedLoop(sv *serveResult, rd *reader, n int, tr *tracer) {
	id := tr.begin("serve.closed_loop", "")
	for i := 0; i < n; i++ {
		sv.issue(rd, i, time.Now(), tr)
	}
	tr.end(id)
}

// checkpointPhase times POST /v1/checkpoint (fsync and rename included)
// and core.ResumeEngine from the file it wrote.
func checkpointPhase(sv *serveResult, rd *reader, eng *core.Engine, path string, o runOpts, tr *tracer) {
	posts, resumes := 9, 5
	if o.Quick {
		posts, resumes = 2, 1
	}
	sv.checkpointedMinute = eng.Minute()
	for i := 0; i < posts; i++ {
		id := tr.begin("serve.checkpoint_post", "")
		t0 := time.Now()
		resp, err := rd.client.Post(rd.base+"/v1/checkpoint", "application/json", nil)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		sv.checkpointS = append(sv.checkpointS, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			sv.failedSnapshots++
			sv.fail("POST /v1/checkpoint: %v", err)
		}
	}
	for i := 0; i < resumes; i++ {
		id := tr.begin("core.resume_engine", "")
		t0 := time.Now()
		resumed, err := resumeFile(path)
		sv.resumeS = append(sv.resumeS, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			sv.failedSnapshots++
			sv.fail("ResumeEngine: %v", err)
			continue
		}
		sv.resumedMinute = resumed.Minute()
	}
}

func resumeFile(path string) (*core.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ResumeEngine(f)
}

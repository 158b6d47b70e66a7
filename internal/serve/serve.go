// Package serve hosts a simulation fleet as a long-running daemon: the
// stepwise core.Engine advances in the background on a configurable pace
// while an HTTP API serves per-home forecasts and device plans, exposes
// and retunes the live federation knobs, and rotates full-fleet
// checkpoints for crash recovery and warm starts.
//
// Concurrency model: one mutex serializes everything that touches the
// engine — background stepping, reconfiguration, checkpointing, and
// publishing the read view. GET routes never take it. Whenever what a
// read would answer may have changed (a stepped or finished hour, an
// applied config, a checkpoint attempt), the daemon encodes every GET
// response body — status, settings, and each home's forecast and plan —
// under the mutex into an immutable fleetView and swaps it in through an
// atomic pointer; readers load the pointer and write bytes. A read therefore answers for
// the last completed hour (FleetStatus.Minute says which) and never waits
// out a step. Building the view calls the engine's query methods, which
// are perturbation-free by construction (greedy policy reads,
// scratch-only forecasts; see core's inspect tests).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Options configures a Daemon.
type Options struct {
	// StepInterval is the wall-clock pace of background stepping: one
	// simulated hour per interval. 0 defaults to one second.
	StepInterval time.Duration
	// CheckpointPath, when set, receives a full-fleet snapshot every
	// CheckpointEvery simulated hours and once more on shutdown. Writes
	// are atomic (tmp + rename), so a crash never leaves a torn file.
	CheckpointPath string
	// CheckpointEvery is the rotation period in simulated hours
	// (default 24 — nightly at the default pace).
	CheckpointEvery int
	// Log receives daemon progress lines; nil uses the standard logger.
	Log *log.Logger
}

// Daemon is a running service instance over one engine.
type Daemon struct {
	mu   sync.Mutex
	eng  *core.Engine
	opts Options
	log  *log.Logger

	// view is what the GET routes serve; it is replaced, never mutated,
	// and only under mu.
	view           atomic.Pointer[fleetView]
	publishSeconds *telemetry.Histogram

	hoursSinceCkpt int
	checkpoints    int
	lastCkptAt     *time.Time
}

// fleetView is an immutable snapshot of every GET response, each body
// encoded exactly as writeJSON would encode it live.
type fleetView struct {
	status []byte // /v1/fleet/status
	config []byte // GET /v1/config
	homes  []homeView
}

// homeView holds one home's /v1/forecast and /v1/plan responses.
type homeView struct {
	forecast, plan response
}

// response is a pre-encoded JSON reply.
type response struct {
	code int
	body []byte
}

// New builds a daemon over an engine — freshly constructed or resumed
// from a snapshot. sink may be nil.
func New(eng *core.Engine, sink *telemetry.Sink, opts Options) *Daemon {
	if opts.StepInterval <= 0 {
		opts.StepInterval = time.Second
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 24
	}
	lg := opts.Log
	if lg == nil {
		lg = log.Default()
	}
	d := &Daemon{
		eng:  eng,
		opts: opts,
		log:  lg,
		publishSeconds: sink.Histogram("pfdrl_serve_view_publish_seconds",
			"wall time of one read-view publish, paid by the stepper under the daemon lock",
			telemetry.DurationBuckets()),
	}
	d.publishLocked()
	return d
}

// FleetStatus is the /v1/fleet/status payload.
type FleetStatus struct {
	Method   string `json:"method"`
	Scenario string `json:"scenario,omitempty"`
	Homes    int    `json:"homes"`
	Days     int    `json:"days"`
	Day      int    `json:"day"`
	Hour     int    `json:"hour"`
	Minute   int    `json:"minute"`
	Done     bool   `json:"done"`
	Finished bool   `json:"finished"`

	StepIntervalMS int `json:"step_interval_ms"`

	CheckpointPath  string `json:"checkpoint_path,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every_hours,omitempty"`
	Checkpoints     int    `json:"checkpoints_written"`
	// LastCheckpoint is nil (and omitted) until the first write.
	LastCheckpoint *time.Time `json:"last_checkpoint,omitempty"`

	Settings core.LiveSettings `json:"settings"`
}

// Routes registers the daemon's API on mux:
//
//	GET  /v1/fleet/status   clock, progress, checkpoint state, live knobs
//	GET  /v1/forecast/{home} next-hour per-device load forecast
//	GET  /v1/plan/{home}     next-hour per-device greedy control plan
//	GET  /v1/config          current live-retunable settings
//	POST /v1/config          apply new settings (JSON LiveSettings body)
//	POST /v1/checkpoint      write a full-fleet snapshot now
func (d *Daemon) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/fleet/status", d.handleStatus)
	mux.HandleFunc("GET /v1/forecast/{home}", d.handleForecast)
	mux.HandleFunc("GET /v1/plan/{home}", d.handlePlan)
	mux.HandleFunc("GET /v1/config", d.handleConfigGet)
	mux.HandleFunc("POST /v1/config", d.handleConfigPost)
	mux.HandleFunc("POST /v1/checkpoint", d.handleCheckpoint)
}

// encodeJSON returns the bytes writeJSON sends for v, trailing newline
// included.
func encodeJSON(v any) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(v)
	return b.Bytes()
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	writeBody(w, code, encodeJSON(v))
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody(err))
}

func errorBody(err error) map[string]string {
	return map[string]string{"error": err.Error()}
}

// statusLocked assembles the status payload. Caller holds d.mu.
func (d *Daemon) statusLocked() FleetStatus {
	cfg := d.eng.System().Config()
	return FleetStatus{
		Method:          string(cfg.Method),
		Scenario:        cfg.Scenario.DisplayName(),
		Homes:           cfg.Homes,
		Days:            cfg.Days,
		Day:             d.eng.Day(),
		Hour:            d.eng.Hour(),
		Minute:          d.eng.Minute(),
		Done:            d.eng.Done(),
		Finished:        d.eng.Finished(),
		StepIntervalMS:  int(d.opts.StepInterval / time.Millisecond),
		CheckpointPath:  d.opts.CheckpointPath,
		CheckpointEvery: d.opts.CheckpointEvery,
		Checkpoints:     d.checkpoints,
		LastCheckpoint:  d.lastCkptAt,
		Settings:        d.eng.System().LiveSettings(),
	}
}

// homeResponse encodes one home query the way the live handler answered
// it: the payload on success, a 404 error body otherwise.
func homeResponse(payload any, err error) response {
	if err != nil {
		return response{http.StatusNotFound, encodeJSON(errorBody(err))}
	}
	return response{http.StatusOK, encodeJSON(payload)}
}

// publishLocked rebuilds the whole read view from the engine and swaps it
// in. It runs after every change to what a GET would answer: a stepped or
// finished hour, an applied config, and any checkpoint attempt — a
// snapshot lands in-flight β rounds, which moves the forecasts. Caller
// holds d.mu (or, in New, has the daemon to itself).
func (d *Daemon) publishLocked() {
	start := time.Now()
	homes := make([]homeView, d.eng.System().Config().Homes)
	for home := range homes {
		fcs, err := d.eng.ForecastNextHour(home)
		homes[home].forecast = homeResponse(map[string]any{"home": home, "forecasts": fcs}, err)
		plans, err := d.eng.PlanNextHour(home)
		homes[home].plan = homeResponse(map[string]any{"home": home, "plans": plans}, err)
	}
	d.view.Store(&fleetView{
		status: encodeJSON(d.statusLocked()),
		config: encodeJSON(d.eng.System().LiveSettings()),
		homes:  homes,
	})
	d.publishSeconds.Observe(time.Since(start).Seconds())
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeBody(w, http.StatusOK, d.view.Load().status)
}

// homeParam parses the {home} path segment.
func homeParam(r *http.Request) (int, error) {
	home, err := strconv.Atoi(r.PathValue("home"))
	if err != nil {
		return 0, fmt.Errorf("serve: home %q is not an integer", r.PathValue("home"))
	}
	return home, nil
}

// lookupHome finds the {home} path segment in the current view, writing
// the error response itself when there is no such home.
func (d *Daemon) lookupHome(w http.ResponseWriter, r *http.Request) (homeView, bool) {
	home, err := homeParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return homeView{}, false
	}
	homes := d.view.Load().homes
	if home < 0 || home >= len(homes) {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: home %d outside [0,%d)", home, len(homes)))
		return homeView{}, false
	}
	return homes[home], true
}

func (d *Daemon) handleForecast(w http.ResponseWriter, r *http.Request) {
	if hv, ok := d.lookupHome(w, r); ok {
		writeBody(w, hv.forecast.code, hv.forecast.body)
	}
}

func (d *Daemon) handlePlan(w http.ResponseWriter, r *http.Request) {
	if hv, ok := d.lookupHome(w, r); ok {
		writeBody(w, hv.plan.code, hv.plan.body)
	}
}

func (d *Daemon) handleConfigGet(w http.ResponseWriter, r *http.Request) {
	writeBody(w, http.StatusOK, d.view.Load().config)
}

func (d *Daemon) handleConfigPost(w http.ResponseWriter, r *http.Request) {
	var ls core.LiveSettings
	if err := json.NewDecoder(r.Body).Decode(&ls); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding settings: %w", err))
		return
	}
	d.mu.Lock()
	err := d.eng.System().ApplyLiveSettings(ls)
	applied := d.eng.System().LiveSettings()
	if err == nil {
		d.publishLocked()
	}
	d.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	d.log.Printf("serve: settings applied: β=%gh γ=%gh k=%d codec=%s",
		applied.BetaHours, applied.GammaHours, applied.TopologyK, applied.CommsLevel)
	writeJSON(w, http.StatusOK, applied)
}

func (d *Daemon) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if d.opts.CheckpointPath == "" {
		writeError(w, http.StatusConflict, errors.New("serve: no checkpoint path configured"))
		return
	}
	d.mu.Lock()
	err := d.writeCheckpointLocked()
	d.publishLocked()
	n := d.checkpoints
	d.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"path": d.opts.CheckpointPath, "checkpoints_written": n})
}

// writeCheckpointLocked snapshots the fleet atomically: the snapshot is
// written to a sibling temp file and renamed over the target, so readers
// never observe a torn checkpoint. Caller holds d.mu and republishes the
// view afterwards, whether or not the write succeeded.
func (d *Daemon) writeCheckpointLocked() error {
	path := d.opts.CheckpointPath
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := d.eng.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("serve: installing checkpoint: %w", err)
	}
	now := time.Now()
	d.checkpoints++
	d.hoursSinceCkpt = 0
	d.lastCkptAt = &now
	return nil
}

// Run steps the engine one simulated hour per StepInterval until the
// context is cancelled, checkpointing every CheckpointEvery hours. When
// the run completes it assembles the Result, logs the headline numbers,
// and keeps serving the trained fleet. On cancellation it writes a final
// checkpoint (if configured) and returns nil; any engine error is
// returned after a best-effort final checkpoint.
func (d *Daemon) Run(ctx context.Context) error {
	ticker := time.NewTicker(d.opts.StepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return d.finalCheckpoint(nil)
		case <-ticker.C:
			if err := d.stepOnce(); err != nil {
				return d.finalCheckpoint(err)
			}
		}
	}
}

// stepOnce advances one simulated hour (or finishes the run) under the
// daemon lock and publishes the new read view. An already-finished fleet
// has nothing to publish.
func (d *Daemon) stepOnce() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.eng.Done() {
		if d.eng.Finished() {
			return nil
		}
		res, err := d.eng.Finish()
		if err != nil {
			return err
		}
		d.publishLocked()
		d.log.Printf("serve: run complete: %d days, forecast accuracy %.3f, convergence day %d; serving trained fleet",
			len(res.DailySavedKWhPerHome), res.ForecastAccuracy, res.ConvergenceDay+1)
		return nil
	}
	if err := d.eng.StepHour(); err != nil {
		return err
	}
	d.hoursSinceCkpt++
	if d.opts.CheckpointPath != "" && d.hoursSinceCkpt >= d.opts.CheckpointEvery {
		if err := d.writeCheckpointLocked(); err != nil {
			// A failed rotation should not kill the run; the next period
			// retries and the shutdown path writes a final snapshot.
			d.log.Printf("serve: checkpoint rotation failed: %v", err)
		}
	}
	d.publishLocked()
	return nil
}

// finalCheckpoint writes the shutdown snapshot and flushes telemetry,
// preferring the step error (if any) over a checkpoint error.
func (d *Daemon) finalCheckpoint(stepErr error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.opts.CheckpointPath != "" {
		err := d.writeCheckpointLocked()
		d.publishLocked()
		if err != nil {
			d.log.Printf("serve: final checkpoint failed: %v", err)
			if stepErr == nil {
				stepErr = err
			}
		} else {
			d.log.Printf("serve: final checkpoint written to %s (day %d hour %d)",
				d.opts.CheckpointPath, d.eng.Day(), d.eng.Hour())
		}
	}
	return stepErr
}

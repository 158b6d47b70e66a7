package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/telemetry"
)

// tinyEngine builds a small fast fleet for daemon tests.
func tinyEngine(t *testing.T) *core.Engine {
	t.Helper()
	cfg := core.DefaultConfig(core.MethodPFDRL)
	cfg.Homes = 3
	cfg.Days = 2
	cfg.DevicesPerHome = 2
	cfg.ForecastKind = forecast.KindLR
	cfg.ForecastWindow = 16
	cfg.DQNHidden = []int{12, 12}
	cfg.Alpha = 1
	cfg.LookAhead, cfg.LookBack = 4, 4
	cfg.LearnEveryMinutes = 20
	cfg.DQNBatch = 8
	cfg.TrainEveryHours = 8
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(s)
}

// newTestDaemon wires a daemon and its API into an httptest server.
func newTestDaemon(t *testing.T, opts Options) (*Daemon, *httptest.Server) {
	t.Helper()
	opts.Log = log.New(io.Discard, "", 0)
	d := New(tinyEngine(t), nil, opts)
	mux := http.NewServeMux()
	d.Routes(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return d, srv
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestDaemonEndpoints(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.ckpt")
	d, srv := newTestDaemon(t, Options{CheckpointPath: ckpt, CheckpointEvery: 5, StepInterval: time.Millisecond})

	var st FleetStatus
	getJSON(t, srv.URL+"/v1/fleet/status", &st)
	if st.Method != "PFDRL" || st.Homes != 3 || st.Day != 0 || st.Done {
		t.Fatalf("fresh status: %+v", st)
	}
	if st.Settings.CommsLevel != "delta" {
		t.Fatalf("settings not surfaced: %+v", st.Settings)
	}

	// Step a few hours directly, then query forecasts and plans.
	for i := 0; i < 3; i++ {
		if err := d.stepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	var fc struct {
		Home      int                   `json:"home"`
		Forecasts []core.DeviceForecast `json:"forecasts"`
	}
	getJSON(t, srv.URL+"/v1/forecast/1", &fc)
	if fc.Home != 1 || len(fc.Forecasts) != 2 {
		t.Fatalf("forecast payload: %+v", fc)
	}
	for _, f := range fc.Forecasts {
		if len(f.PredKW) != 60 || f.Minute != 3*60 {
			t.Fatalf("forecast device %s: minute %d, %d preds", f.DeviceType, f.Minute, len(f.PredKW))
		}
	}
	var plan struct {
		Plans []core.DevicePlan `json:"plans"`
	}
	getJSON(t, srv.URL+"/v1/plan/0", &plan)
	if len(plan.Plans) != 2 || len(plan.Plans[0].Actions) != 60 {
		t.Fatalf("plan payload: %+v", plan)
	}

	// Bad home values.
	if resp := getJSON(t, srv.URL+"/v1/forecast/99", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range home: %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/v1/plan/abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-integer home: %d", resp.StatusCode)
	}
}

func TestDaemonConfigRoundTrip(t *testing.T) {
	_, srv := newTestDaemon(t, Options{StepInterval: time.Millisecond})

	var ls core.LiveSettings
	getJSON(t, srv.URL+"/v1/config", &ls)
	ls.BetaHours, ls.GammaHours = 6, 9
	body, _ := json.Marshal(ls)
	resp, err := http.Post(srv.URL+"/v1/config", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var applied core.LiveSettings
	if err := json.NewDecoder(resp.Body).Decode(&applied); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || applied.BetaHours != 6 || applied.GammaHours != 9 {
		t.Fatalf("apply: status %d, %+v", resp.StatusCode, applied)
	}

	// Invalid settings are rejected with 422 and leave state unchanged.
	bad := applied
	bad.BetaHours = -1
	body, _ = json.Marshal(bad)
	resp, err = http.Post(srv.URL+"/v1/config", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid settings: status %d", resp.StatusCode)
	}
	getJSON(t, srv.URL+"/v1/config", &ls)
	if ls.BetaHours != 6 {
		t.Fatalf("rejected apply mutated settings: %+v", ls)
	}
}

func TestDaemonCheckpointRotationAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.ckpt")
	d, srv := newTestDaemon(t, Options{CheckpointPath: ckpt, CheckpointEvery: 4, StepInterval: time.Millisecond})

	// 9 hours → two rotations (hours 4 and 8).
	for i := 0; i < 9; i++ {
		if err := d.stepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	var st FleetStatus
	getJSON(t, srv.URL+"/v1/fleet/status", &st)
	if st.Checkpoints != 2 {
		t.Fatalf("checkpoints written: %d, want 2", st.Checkpoints)
	}

	// On-demand checkpoint, then resume it and verify the clock.
	resp, err := http.Post(srv.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint POST: %d", resp.StatusCode)
	}
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	eng, err := core.ResumeEngine(f)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Day() != 0 || eng.Hour() != 9 {
		t.Fatalf("resumed clock: day %d hour %d, want 0/9", eng.Day(), eng.Hour())
	}
}

func TestDaemonRunStepsAndShutsDown(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.ckpt")
	d, srv := newTestDaemon(t, Options{CheckpointPath: ckpt, CheckpointEvery: 100, StepInterval: time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	// Wait for background stepping to make progress.
	deadline := time.Now().Add(10 * time.Second)
	var st FleetStatus
	for {
		getJSON(t, srv.URL+"/v1/fleet/status", &st)
		if st.Minute >= 2*60 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no stepping progress: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	// Shutdown wrote a final checkpoint that resumes cleanly.
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := core.ResumeEngine(f); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonServesFinishedFleet(t *testing.T) {
	d, srv := newTestDaemon(t, Options{StepInterval: time.Millisecond})
	for !d.eng.Done() {
		if err := d.stepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	// One more step finishes the run; further steps are no-ops.
	for i := 0; i < 2; i++ {
		if err := d.stepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	var st FleetStatus
	getJSON(t, srv.URL+"/v1/fleet/status", &st)
	if !st.Done || !st.Finished {
		t.Fatalf("finished status: %+v", st)
	}
	var fc struct {
		Forecasts []core.DeviceForecast `json:"forecasts"`
	}
	getJSON(t, srv.URL+"/v1/forecast/0", &fc)
	if len(fc.Forecasts) == 0 {
		t.Fatal("finished fleet stopped serving forecasts")
	}
	var plan struct {
		Plans []core.DevicePlan `json:"plans"`
	}
	getJSON(t, srv.URL+"/v1/plan/2", &plan)
	if len(plan.Plans) == 0 {
		t.Fatal("finished fleet stopped serving plans")
	}
}

// getPaths lists every GET route the daemon serves for a fleet of homes.
func getPaths(homes int) []string {
	paths := []string{"/v1/fleet/status", "/v1/config"}
	for home := 0; home < homes; home++ {
		paths = append(paths, fmt.Sprintf("/v1/forecast/%d", home), fmt.Sprintf("/v1/plan/%d", home))
	}
	return paths
}

// liveResponses builds, under the daemon lock, what each GET route would
// answer if it queried the engine now, encoded through writeJSON.
func liveResponses(t *testing.T, d *Daemon) map[string]response {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	out := map[string]response{}
	record := func(path string, v any) {
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, v)
		out[path] = response{w.Code, w.Body.Bytes()}
	}
	record("/v1/fleet/status", d.statusLocked())
	record("/v1/config", d.eng.System().LiveSettings())
	for home := 0; home < d.eng.System().Config().Homes; home++ {
		fcs, err := d.eng.ForecastNextHour(home)
		if err != nil {
			t.Fatalf("live forecast home %d: %v", home, err)
		}
		record(fmt.Sprintf("/v1/forecast/%d", home), map[string]any{"home": home, "forecasts": fcs})
		plans, err := d.eng.PlanNextHour(home)
		if err != nil {
			t.Fatalf("live plan home %d: %v", home, err)
		}
		record(fmt.Sprintf("/v1/plan/%d", home), map[string]any{"home": home, "plans": plans})
	}
	return out
}

// servedResponses fetches every GET route over HTTP.
func servedResponses(t *testing.T, base string, homes int) map[string]response {
	t.Helper()
	out := map[string]response{}
	for _, path := range getPaths(homes) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[path] = response{resp.StatusCode, body}
	}
	return out
}

func assertSameResponses(t *testing.T, label string, want, got map[string]response) {
	t.Helper()
	for path, w := range want {
		g := got[path]
		if g.code != w.code || !bytes.Equal(g.body, w.body) {
			t.Fatalf("%s: GET %s served %d %q, live answer is %d %q", label, path, g.code, g.body, w.code, w.body)
		}
	}
}

// TestViewMatchesLiveQueries pins the published view to the engine: at
// every hour of the run — the unprepared hour 0 of each day, Done before
// Finish, the finished fleet — each GET body is byte-identical to the
// same payload encoded live under the lock. Publishing at every hour must
// also leave the run bit-identical to one nobody read.
func TestViewMatchesLiveQueries(t *testing.T) {
	dir := t.TempDir()
	d, srv := newTestDaemon(t, Options{CheckpointPath: filepath.Join(dir, "fleet.ckpt"), CheckpointEvery: 7})
	homes := d.eng.System().Config().Homes
	check := func(label string) {
		t.Helper()
		assertSameResponses(t, label, liveResponses(t, d), servedResponses(t, srv.URL, homes))
	}

	check("fresh fleet")
	var sawDayStart, sawDoneUnfinished bool
	for !d.eng.Finished() {
		if err := d.stepOnce(); err != nil {
			t.Fatal(err)
		}
		sawDayStart = sawDayStart || (d.eng.Day() == 1 && d.eng.Hour() == 0)
		sawDoneUnfinished = sawDoneUnfinished || (d.eng.Done() && !d.eng.Finished())
		check(fmt.Sprintf("day %d hour %d finished=%v", d.eng.Day(), d.eng.Hour(), d.eng.Finished()))
	}
	if !sawDayStart || !sawDoneUnfinished {
		t.Fatalf("run skipped a state: day-1 start %v, done-before-finish %v", sawDayStart, sawDoneUnfinished)
	}
	finished := d.view.Load()
	if err := d.stepOnce(); err != nil {
		t.Fatal(err)
	}
	if d.view.Load() != finished {
		t.Fatal("an idle tick of the finished fleet republished the view")
	}
	check("finished fleet, idle tick")

	want, err := tinyEngine(t).System().Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.DailySavedKWhPerHome, got.DailySavedKWhPerHome) ||
		!reflect.DeepEqual(want.DailyMeanReward, got.DailyMeanReward) ||
		!reflect.DeepEqual(want.AccuracySamples, got.AccuracySamples) ||
		want.ForecastComms != got.ForecastComms || want.EMSComms != got.EMSComms {
		t.Fatal("publishing the view perturbed the run")
	}

	// An applied config lands in both the status and the config body.
	var ls core.LiveSettings
	getJSON(t, srv.URL+"/v1/config", &ls)
	ls.BetaHours, ls.GammaHours = 5, 7
	if code := postJSON(t, srv.URL+"/v1/config", ls); code != http.StatusOK {
		t.Fatalf("apply: status %d", code)
	}
	check("after applied config")
	var st FleetStatus
	getJSON(t, srv.URL+"/v1/fleet/status", &st)
	getJSON(t, srv.URL+"/v1/config", &ls)
	if st.Settings.BetaHours != 5 || st.Settings.GammaHours != 7 || ls.BetaHours != 5 || ls.GammaHours != 7 {
		t.Fatalf("applied settings not served: status %+v, config %+v", st.Settings, ls)
	}

	// A rejected config leaves the view as it was.
	before := d.view.Load()
	ls.BetaHours = -1
	if code := postJSON(t, srv.URL+"/v1/config", ls); code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid settings: status %d", code)
	}
	if d.view.Load() != before {
		t.Fatal("rejected config republished the view")
	}

	// A checkpoint write shows in the status.
	if code := postJSON(t, srv.URL+"/v1/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("checkpoint POST: %d", code)
	}
	check("after checkpoint POST")
	var after FleetStatus
	getJSON(t, srv.URL+"/v1/fleet/status", &after)
	if after.Checkpoints != st.Checkpoints+1 {
		t.Fatalf("checkpoints_written %d after POST, want %d", after.Checkpoints, st.Checkpoints+1)
	}
}

func postJSON(t *testing.T, url string, v any) int {
	t.Helper()
	var body io.Reader
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestStatusLastCheckpoint: no last_checkpoint key until a snapshot has
// been written.
func TestStatusLastCheckpoint(t *testing.T) {
	_, srv := newTestDaemon(t, Options{CheckpointPath: filepath.Join(t.TempDir(), "fleet.ckpt")})
	var raw map[string]any
	getJSON(t, srv.URL+"/v1/fleet/status", &raw)
	if v, ok := raw["last_checkpoint"]; ok {
		t.Fatalf("fresh status reports last_checkpoint %v", v)
	}
	if code := postJSON(t, srv.URL+"/v1/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("checkpoint POST: %d", code)
	}
	var st FleetStatus
	getJSON(t, srv.URL+"/v1/fleet/status", &st)
	if st.LastCheckpoint == nil || st.LastCheckpoint.IsZero() {
		t.Fatalf("last_checkpoint after a write: %v", st.LastCheckpoint)
	}
}

// TestGetsDoNotTakeTheLock: with the daemon lock held (as it is for a
// whole step), every GET route still answers.
func TestGetsDoNotTakeTheLock(t *testing.T) {
	d, srv := newTestDaemon(t, Options{})
	client := &http.Client{Timeout: time.Second}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, path := range getPaths(d.eng.System().Config().Homes) {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s with the daemon lock held: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// TestReadsRaceStepping hammers every GET route while Run steps the fleet
// to completion and the POST routes republish; run it under -race.
func TestReadsRaceStepping(t *testing.T) {
	d, srv := newTestDaemon(t, Options{CheckpointPath: filepath.Join(t.TempDir(), "fleet.ckpt"), StepInterval: time.Millisecond})
	paths := getPaths(d.eng.System().Config().Homes)
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx) }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + paths[i%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(body) {
					t.Errorf("GET %s: status %d, err %v, body %q", paths[i%len(paths)], resp.StatusCode, err, body)
					return
				}
			}
		}(r)
	}

	var ls core.LiveSettings
	getJSON(t, srv.URL+"/v1/config", &ls)
	ls.BetaHours = 6
	for _, post := range []struct {
		path string
		body any
	}{{"/v1/config", ls}, {"/v1/checkpoint", nil}} {
		if code := postJSON(t, srv.URL+post.path, post.body); code != http.StatusOK {
			t.Errorf("POST %s: status %d", post.path, code)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st FleetStatus
		getJSON(t, srv.URL+"/v1/fleet/status", &st)
		if st.Finished {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("fleet not finished by the deadline: %+v", st)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestPublishHistogram: every publish lands one sample on the sink.
func TestPublishHistogram(t *testing.T) {
	sink := telemetry.NewSink()
	d := New(tinyEngine(t), sink, Options{
		CheckpointPath: filepath.Join(t.TempDir(), "fleet.ckpt"),
		Log:            log.New(io.Discard, "", 0),
	})
	h := sink.Histogram("pfdrl_serve_view_publish_seconds", "", telemetry.DurationBuckets())
	if h.Count() != 1 {
		t.Fatalf("publishes after New: %d, want 1", h.Count())
	}
	for i := 0; i < 2; i++ {
		if err := d.stepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	d.handleCheckpoint(rec, httptest.NewRequest(http.MethodPost, "/v1/checkpoint", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint POST: %d %s", rec.Code, rec.Body)
	}
	if h.Count() != 4 || h.Sum() <= 0 {
		t.Fatalf("publishes after 2 steps and a checkpoint: %d (sum %gs), want 4", h.Count(), h.Sum())
	}
}

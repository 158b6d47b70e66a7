package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/pecan"
	"repro/internal/sched"
)

// A run builds its system at least setupReps times, and up to maxSetupReps
// while that takes under setupBudget; setup_s is the median, because a
// single 15–70 ms construction is too noisy to bound.
const (
	setupReps    = 9
	maxSetupReps = 25
	setupBudget  = 400 * time.Millisecond
)

// runOpts are the knobs of one workload run.
type runOpts struct {
	Seconds float64
	Trace   bool
	// OutDir receives the trace file and the checkpoint the serve phase
	// writes; it is created on demand.
	OutDir string
	// Quick shrinks probe call counts and phase repeats; the test suite
	// sets it together with smokeCut.
	Quick bool
	// InjectNaN corrupts one Result series before the output checks, so the
	// test suite can show a failed check turns into a non-zero exit.
	InjectNaN bool
}

// check is one output check; any failed check makes the run incorrect.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one workload run produced.
type report struct {
	Workload     string      `json:"workload"`
	Why          string      `json:"why"`
	Seed         int64       `json:"seed"`
	Seconds      float64     `json:"seconds"`
	Traced       bool        `json:"traced"`
	DegradedHost bool        `json:"degraded_host"`
	ConfigHash   string      `json:"config_hash"`
	Config       core.Config `json:"config"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`

	// Metrics are the end-to-end metrics of record; Extra the ones only
	// this workload produces. Layers / LayerExtra are the traced
	// counterparts.
	Metrics    metricSet `json:"metrics"`
	Extra      metricSet `json:"extra,omitempty"`
	Layers     metricSet `json:"layers,omitempty"`
	LayerExtra metricSet `json:"layer_extra,omitempty"`
	// Skipped names metrics this host cannot measure, with the reason.
	Skipped map[string]string `json:"skipped,omitempty"`
	// Samples states how many samples stand behind each percentile.
	Samples map[string]int `json:"samples"`

	Checks    []check  `json:"checks"`
	Warnings  []string `json:"warnings,omitempty"`
	Digest    string   `json:"result_digest"`
	TraceFile string   `json:"trace_file,omitempty"`
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *report) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// pinHost fixes the scheduler width for the whole process and reports
// whether the host is too small for the parallel-speedup metrics to mean
// anything.
func pinHost() (degraded bool) {
	runtime.GOMAXPROCS(pinnedProcs)
	sched.SetDefaultSize(pinnedProcs)
	return runtime.NumCPU() < pinnedProcs
}

// hourClass names what an hour does, from the configuration alone: hour 0
// prepares the day, TrainEveryHours multiples run a forecaster bout, hours
// containing a β or γ instant run a federation round, the rest are plain.
func hourClass(cfg core.Config, day, hour int) string {
	switch {
	case hour == 0:
		return "dayprep"
	case (hour+1)%cfg.TrainEveryHours == 0:
		return "bout"
	}
	hourEnd := day*pecan.MinutesPerDay + (hour+1)*60
	for _, period := range []float64{cfg.BetaHours, cfg.GammaHours} {
		s := fed.Schedule{PeriodHours: period}
		for m := hourEnd - 59; m <= hourEnd; m++ {
			if s.Due(m) {
				return "round"
			}
		}
	}
	return "plain"
}

var hourClasses = []string{"plain", "dayprep", "bout", "round"}

// stepTimes holds the wall time of harness-driven StepHour calls, in
// milliseconds, overall and by hour class.
type stepTimes struct {
	all     []float64
	byClass map[string][]float64
}

// stepHours drives n StepHour calls (or to Done when n < 0), timing each.
func stepHours(eng *core.Engine, n int, tr *tracer) (stepTimes, error) {
	cfg := eng.System().Config()
	st := stepTimes{byClass: map[string][]float64{}}
	for i := 0; (n < 0 || i < n) && !eng.Done(); i++ {
		class := hourClass(cfg, eng.Day(), eng.Hour())
		id := tr.begin("core.step_hour", class)
		t0 := time.Now()
		err := eng.StepHour()
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(id)
		if err != nil {
			return st, fmt.Errorf("bench: StepHour at day %d hour %d: %w", eng.Day(), eng.Hour(), err)
		}
		st.all = append(st.all, ms)
		st.byClass[class] = append(st.byClass[class], ms)
	}
	return st, nil
}

// buildEngine is the set-up every workload pays: NewSystem + NewEngine.
func buildEngine(cfg core.Config) (eng *core.Engine, sysMS, totalS float64, err error) {
	t0 := time.Now()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("bench: NewSystem: %w", err)
	}
	sysMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	eng = core.NewEngine(sys)
	return eng, sysMS, time.Since(t0).Seconds(), nil
}

// finish lands the run and returns its Result. Peak RSS is read here, when
// the simulation ends: the closed-loop reads that follow a batch run burst
// ~25 MB of garbage whose high-water mark is GC-timing noise, and the
// traced probes after that are not the workload at all.
func finish(eng *core.Engine, rep *report, tr *tracer) (*core.Result, error) {
	id := tr.begin("core.finish", "")
	defer tr.end(id)
	res, err := eng.Finish()
	if err != nil {
		return nil, fmt.Errorf("bench: Finish: %w", err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.Metrics.set(endToEnd, "peak_rss_mb", rss)
	return res, nil
}

// runWorkload runs one workload in this process.
func runWorkload(w workload, o runOpts) (*report, error) {
	degraded := pinHost()
	hash, err := configHash(w.Config)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: w.Name, Why: w.Why, Seed: w.Config.Seed, Seconds: o.Seconds,
		Traced: o.Trace, DegradedHost: degraded, ConfigHash: hash, Config: w.Config,
		Metrics: metricSet{}, Extra: metricSet{}, Samples: map[string]int{},
	}
	var tr *tracer
	if o.Trace {
		tr = newTracer(w.Name)
		rep.Layers, rep.LayerExtra, rep.Skipped = metricSet{}, metricSet{}, map[string]string{}
	}
	cfg := w.Config
	if w.WarmHours >= cfg.Days*24 {
		return nil, fmt.Errorf("bench: %s warms %d hours of a %d-hour run; nothing left to serve", w.Name, w.WarmHours, cfg.Days*24)
	}
	root := tr.begin("run", "")

	// Set-up, several times over; the last engine is the one that runs.
	var eng *core.Engine
	var setupS, newSysMS []float64
	id := tr.begin("setup", "")
	minReps, maxReps := setupReps, maxSetupReps
	if o.Quick {
		minReps, maxReps = 2, 2
	}
	for start := time.Now(); len(setupS) < minReps || (len(setupS) < maxReps && time.Since(start) < setupBudget); {
		e, sysMS, s, err := buildEngine(cfg)
		if err != nil {
			return nil, err
		}
		eng = e
		setupS, newSysMS = append(setupS, s), append(newSysMS, sysMS)
	}
	tr.end(id)
	rep.Metrics.set(endToEnd, "setup_s", median(setupS))
	runtime.GC() // drop the discarded systems before anything is measured

	// Batch phase: every hour back-to-back plus Finish for a batch
	// workload, the warm-up hours for the serve workload. The run clock is
	// the StepHour loop and, where it belongs to the phase, Finish.
	batchHours := cfg.Days * 24
	if w.openLoop() {
		batchHours = w.WarmHours
	}
	var res *core.Result
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	id = tr.begin("batch", "")
	t0 := time.Now()
	batch, err := stepHours(eng, batchHours, tr)
	if err == nil && !w.openLoop() {
		res, err = finish(eng, rep, tr)
	}
	batchWallS := time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	homeDays := float64(cfg.Homes) * float64(batchHours) / 24
	rep.Metrics.set(endToEnd, "home_days_per_s", homeDays/batchWallS)
	rep.Metrics.set(endToEnd, "step_hour_p90_ms", quantile(batch.all, 0.90))
	rep.Metrics.set(endToEnd, "alloc_mb_per_home_day", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/homeDays)
	rep.Samples["step_hour"] = len(batch.all)

	// Serve phase: one client reads through the daemon's API — in an open
	// loop while the daemon steps (serve workload), in a closed loop over
	// the finished fleet (batch workloads).
	sv, err := servePhase(w, eng, o, tr)
	if err != nil {
		return nil, err
	}
	rep.Metrics.set(endToEnd, "read_p50_ms", sv.latencyMS(0.50))
	rep.Metrics.set(endToEnd, "read_p99_ms", sv.latencyMS(0.99))
	rep.Samples["reads"], rep.Samples["read_blocks"] = len(sv.reads), sv.blocks

	if w.openLoop() {
		rep.Extra.set(workloadOnly, "checkpoint_s", median(sv.checkpointS))
		rep.Extra.set(workloadOnly, "resume_s", median(sv.resumeS))
		rep.Samples["checkpoints"], rep.Samples["resumes"] = len(sv.checkpointS), len(sv.resumeS)
		// Tail: whatever the daemon left of the last day, then Finish.
		id = tr.begin("tail", "")
		if _, err = stepHours(eng, -1, tr); err == nil {
			res, err = finish(eng, rep, tr)
		}
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	if o.InjectNaN {
		res.DailySavedFrac[0] = math.NaN()
	}

	totalHomeDays := float64(cfg.Homes * cfg.Days)
	rep.Metrics.set(endToEnd, "wire_mb_per_home_day",
		float64(res.ForecastComms.BytesSent+res.EMSComms.BytesSent)/1e6/totalHomeDays)
	rep.Metrics.set(endToEnd, "saved_frac_final", res.DailySavedFrac[len(res.DailySavedFrac)-1])
	rep.Metrics.set(endToEnd, "forecast_accuracy", res.ForecastAccuracy)
	if res.DER != nil {
		rep.Extra.set(workloadOnly, "der_cost_cents_per_home_day", res.DER.CostCents/totalHomeDays)
	}
	// Operations, for the failure-share rule.
	rep.Attempted = cfg.Days*24 + res.Resilience.Rounds + len(sv.reads) + len(sv.checkpointS) + len(sv.resumeS)
	rep.Failed = res.Resilience.DegradedRounds + sv.failedReads + sv.failedSnapshots

	rep.Digest = resultDigest(res)
	outputChecks(rep, w, res, sv)

	if o.Trace {
		layerMetrics(rep, w, o, tr, layerInputs{
			eng: eng, res: res, batch: batch, serve: sv, newSysMS: newSysMS,
		})
	}
	tr.end(root)
	if o.Trace {
		path, err := tr.write(o.OutDir)
		if err != nil {
			return nil, err
		}
		rep.TraceFile = path
	}

	rep.Correct = true
	for _, c := range rep.Checks {
		rep.Correct = rep.Correct && c.OK
	}
	return rep, nil
}

// outputChecks verifies what the run produced; any failure is a non-zero
// exit.
func outputChecks(rep *report, w workload, res *core.Result, sv *serveResult) {
	cfg := w.Config
	bad := ""
	for _, sr := range resultSeries(res) {
		for i, x := range sr.xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				bad = fmt.Sprintf("%s[%d] = %v", sr.name, i, x)
			}
		}
	}
	rep.check("result series finite", bad == "", "%s", bad)
	saved := res.DailySavedFrac[len(res.DailySavedFrac)-1]
	rep.check("0 < saved_frac_final <= 1", saved > 0 && saved <= 1, "saved_frac_final = %v", saved)
	acc := res.ForecastAccuracy
	rep.check("0 <= forecast_accuracy <= 1", acc >= 0 && acc <= 1, "forecast_accuracy = %v", acc)
	rep.check("all simulated days reported", len(res.DailySavedFrac) == cfg.Days,
		"%d daily rows for %d days", len(res.DailySavedFrac), cfg.Days)
	rep.check("no degraded rounds", res.Resilience.DegradedRounds == 0,
		"%d of %d rounds degraded on a clean fabric", res.Resilience.DegradedRounds, res.Resilience.Rounds)
	if cfg.Scenario.HasDER() {
		units := 0
		if res.DER != nil {
			units = res.DER.Units
		}
		want := len(cfg.Scenario.DER) * cfg.Homes
		rep.check("DER units deployed", units == want, "%d DER units, want %d", units, want)
	}
	rep.check("no failed reads", sv.failedReads == 0, "%d of %d reads failed (first: %s)", sv.failedReads, len(sv.reads), sv.firstFailure)
	if w.openLoop() {
		// The daemon ticks every stepIntervalMS; three quarters of the
		// ticks must have landed a simulated hour (serve8: ≥ 30 of 40).
		wantHours := int(0.75 * sv.window.Seconds() * 1000 / stepIntervalMS)
		rep.check("daemon advanced the clock", sv.hoursAdvanced >= wantHours,
			"daemon advanced %d simulated hours in %.1fs, want >= %d", sv.hoursAdvanced, sv.wall.Seconds(), wantHours)
		rep.check("checkpoints and resumes succeeded", sv.failedSnapshots == 0, "%d failed (first: %s)", sv.failedSnapshots, sv.firstFailure)
		rep.check("resumed clock equals checkpointed clock", sv.resumedMinute == sv.checkpointedMinute,
			"resumed at minute %d, checkpointed at %d", sv.resumedMinute, sv.checkpointedMinute)
	}
}

// series is one named float series of a Result.
type series struct {
	name string
	xs   []float64
}

// resultSeries lists every float series of a Result in a fixed order, for
// the finiteness check and the digest.
func resultSeries(res *core.Result) []series {
	out := []series{
		{"DailySavedKWhPerHome", res.DailySavedKWhPerHome},
		{"DailySavedFrac", res.DailySavedFrac},
		{"DailyMeanReward", res.DailyMeanReward},
		{"PerHomeSavedKWhFinal", res.PerHomeSavedKWhFinal},
		{"PerHomeSavedFracFinal", res.PerHomeSavedFracFinal},
		{"PerHomeRewardFinal", res.PerHomeRewardFinal},
		{"AccuracySamples", res.AccuracySamples},
		{"ForecastAccuracy", []float64{res.ForecastAccuracy}},
		{"AccuracyByHour", res.AccuracyByHour[:]},
		{"SavedByHour", res.SavedByHour[:]},
	}
	if der := res.DER; der != nil {
		out = append(out,
			series{"DER.DailyCostCents", der.DailyCostCents},
			series{"DER.Totals", []float64{der.CostCents, der.RewardSum, der.GridImportKWh,
				der.GridExportKWh, der.PVGeneratedKWh, der.PVUsedKWh, der.EVShortfallKWh}})
	}
	return out
}

// resultDigest is an FNV-1a hash over the Result's float series (bit
// patterns) and communication byte totals. A change that leaves arithmetic
// alone reproduces it exactly at the same seed.
func resultDigest(res *core.Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, sr := range resultSeries(res) {
		for _, x := range sr.xs {
			put(math.Float64bits(x))
		}
	}
	for _, c := range []fed.CommsTotals{res.ForecastComms, res.EMSComms} {
		put(uint64(c.BytesSent))
		put(uint64(c.BytesReceived))
		put(uint64(c.DenseBytes))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: peak RSS: parsing %q: %w", sc.Text(), err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("bench: peak RSS: %w", err)
	}
	return 0, fmt.Errorf("bench: peak RSS: no VmHWM line in /proc/self/status")
}

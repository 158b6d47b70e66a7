package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/pecan"
)

// ErrEngineDone is returned by StepHour/StepDay once every configured day
// has been stepped; the only legal next call is Finish.
var ErrEngineDone = errors.New("core: engine has stepped all configured days")

// ErrEngineFinished is returned when stepping an engine whose Finish has
// already run.
var ErrEngineFinished = errors.New("core: engine already finished")

// ErrScenarioSnapshot is returned by WriteSnapshot when the run carries a
// scenario: the v3 checkpoint format does not serialize scenario runtime
// state (DER devices and policies, adversary counters).
var ErrScenarioSnapshot = errors.New("core: snapshots of scenario runs are not supported")

// Engine is the stepwise form of the simulation loop. Where Run drives all
// cfg.Days days to completion in one call, an Engine exposes the loop's
// clock: StepHour advances exactly one simulated hour (lazily preparing the
// day's forecasts and environments at hour 0, closing the day's accounting
// after hour 23), StepDay advances to the next day boundary, and Finish
// lands in-flight federation rounds and assembles the Result. Run() is a
// thin driver over this type, and the twin-run tests in engine_test.go pin
// the two paths bit-identical.
//
// The split exists for the service mode: a daemon can hold an Engine
// mid-stream, serve forecasts and device plans between steps, snapshot the
// full fleet to disk, and resume later — none of which a monolithic Run
// can offer. All mutating methods must be externally serialized (the
// daemon holds one mutex across stepping, snapshots and the queries that
// build its read view).
type Engine struct {
	sys   *System
	timer *metrics.Timer
	res   *Result

	// day/hour is the engine clock: the NEXT hour StepHour will simulate.
	// dayPrepared records whether beginDay has run for the current day
	// (forecasts predicted, environments built, per-day accumulators
	// reset); it goes false again once endDay closes the day.
	day, hour   int
	dayPrepared bool
	finished    bool

	evalDays, evalStart int

	accBuckets  metrics.HourBuckets
	savedByHour [24]float64

	// Per-day state, valid while dayPrepared.
	envs           [][]*energy.Env
	perHomeSaved   []float64
	perHomeStandby []float64
	perHomeReward  []float64
	perHomeSteps   []int
	dayReward      float64
	daySteps       int
	hourStats      []emsHourStats
}

// NewEngine builds a stepwise engine over the system, resetting the
// system's per-run accumulators exactly as Run's prologue does.
func NewEngine(s *System) *Engine {
	cfg := s.cfg
	e := &Engine{
		sys:   s,
		timer: metrics.NewTimer(),
		res:   &Result{Method: cfg.Method, Config: cfg},
	}
	s.resil = ResilienceReport{}
	e.evalDays = cfg.Days / 4
	if e.evalDays < 1 {
		e.evalDays = 1
	}
	e.evalStart = cfg.Days - e.evalDays
	return e
}

// Day returns the engine clock's current day (the day StepHour is inside,
// or about to enter).
func (e *Engine) Day() int { return e.day }

// Hour returns the engine clock's current hour within Day.
func (e *Engine) Hour() int { return e.hour }

// Minute returns the absolute simulated minute the clock stands at.
func (e *Engine) Minute() int { return e.day*pecan.MinutesPerDay + e.hour*60 }

// Done reports whether every configured day has been stepped. A Done
// engine accepts only Finish.
func (e *Engine) Done() bool { return e.day >= e.sys.cfg.Days }

// Finished reports whether Finish has run.
func (e *Engine) Finished() bool { return e.finished }

// System exposes the underlying system (the daemon reads live settings and
// serves model queries through it).
func (e *Engine) System() *System { return e.sys }

// StepHour simulates exactly one hour: EMS minute loop with local DRL
// training across all homes, then the hour-boundary work (fabric clock,
// forecaster training bouts, β/γ federation rounds). At hour 0 it first
// prepares the day (joins pending forecast rounds, predicts the day's
// forecasts, builds environments); after hour 23 it closes the day's
// accounting and advances to the next day.
func (e *Engine) StepHour() error {
	if e.finished {
		return ErrEngineFinished
	}
	if e.Done() {
		return ErrEngineDone
	}
	if !e.dayPrepared {
		if err := e.beginDay(); err != nil {
			return err
		}
	}
	if err := e.runHour(); err != nil {
		return err
	}
	e.hour++
	if e.hour == 24 {
		if err := e.endDay(); err != nil {
			return err
		}
		e.hour = 0
		e.day++
		e.dayPrepared = false
	}
	return nil
}

// StepDay advances the clock to the next day boundary: a full day when the
// clock stands at hour 0, the remainder of the current day otherwise.
func (e *Engine) StepDay() error {
	if e.finished {
		return ErrEngineFinished
	}
	if e.Done() {
		return ErrEngineDone
	}
	target := e.day + 1
	for !e.Done() && e.day < target {
		if err := e.StepHour(); err != nil {
			return err
		}
	}
	return nil
}

// inEval reports whether the engine's current day falls in the evaluation
// window (the trailing quarter of the run).
func (e *Engine) inEval() bool { return e.day >= e.evalStart }

// beginDay runs the day's forecast phase and builds its EMS state: joins
// any β round still aggregating (prediction reads the very models it
// installs), predicts every (home, device) day concurrently, collects
// accuracy inside the eval window, constructs the day's environments, and
// resets the per-day accumulators.
func (e *Engine) beginDay() error {
	s := e.sys
	day := e.day

	if err := s.joinForecastRounds(e.timer); err != nil {
		return err
	}
	// The prediction wave runs fleet-batched when the forecaster kind
	// supports it (one multi-home forward per device type) and falls back
	// to concurrent per-pair prediction otherwise; accuracy collection
	// stays serial for deterministic aggregation order. The timer keeps two
	// series: the per-task sum (CPU time) and the wave's elapsed time
	// (wall).
	waveStart := time.Now()
	s.predictDayWave(e.timer, day)
	e.timer.Add("fc-test.wall", time.Since(waveStart))
	if e.inEval() {
		for _, h := range s.homes {
			s.collectAccuracy(e.res, &e.accBuckets, h, day)
		}
	}

	envs, err := s.buildDayEnvs(day)
	if err != nil {
		return err
	}
	e.envs = envs
	e.perHomeSaved = make([]float64, len(s.homes))
	e.perHomeStandby = make([]float64, len(s.homes))
	e.perHomeReward = make([]float64, len(s.homes))
	e.perHomeSteps = make([]int, len(s.homes))
	e.dayReward, e.daySteps = 0.0, 0
	e.hourStats = make([]emsHourStats, len(s.homes))
	s.scn.beginDay()
	e.dayPrepared = true
	return nil
}

// buildDayEnvs constructs every home's device environments for one day
// from the already-predicted forecasts (h.predDay) and the trace truth.
// It is a pure function of (predDay, dataset, cfg), which is what lets a
// snapshot restore rebuild mid-day environments instead of serializing
// them: core never calls Env.Step, so an Env holds no mutable state.
func (s *System) buildDayEnvs(day int) ([][]*energy.Env, error) {
	envs := make([][]*energy.Env, len(s.homes))
	for hi, h := range s.homes {
		he, err := s.buildHomeDayEnvs(h, day)
		if err != nil {
			return nil, err
		}
		envs[hi] = he
	}
	return envs, nil
}

// buildHomeDayEnvs builds one home's device environments for one day from
// its current predDay forecasts.
func (s *System) buildHomeDayEnvs(h *simHome, day int) ([]*energy.Env, error) {
	cfg := s.cfg
	envs := make([]*energy.Env, len(h.src.Traces))
	for di, tr := range h.src.Traces {
		// Env retains the truth slice for the whole day, so it gets the
		// home-owned stable copy, not the trace's shared decoded-day cache.
		h.envDay[di] = tr.DayInto(day, h.envDay[di])
		env, err := energy.NewEnv(tr.Device, h.predDay[di], h.envDay[di])
		if err != nil {
			return nil, fmt.Errorf("core: home %d %s: %w", h.id, tr.Device.Type, err)
		}
		env.LookAhead, env.LookBack = cfg.LookAhead, cfg.LookBack
		env.SensorDelay = cfg.SensorDelayMinutes
		if nom := s.nominalKW[tr.Device.Type]; nom > 0 {
			env.NormKW = nom
		}
		envs[di] = env
	}
	return envs, nil
}

// runHour simulates the current hour across all homes and runs the
// hour-boundary work: clock advance, forecaster training bouts, and the
// β/γ federation rounds the schedules fire.
func (e *Engine) runHour() error {
	s := e.sys
	cfg := s.cfg
	day, hour := e.day, e.hour

	// Homes run their EMS hour concurrently: each home's agent,
	// environments, and RNGs are private, so results are identical
	// to the serial schedule; aggregation below follows home order
	// so float summation stays deterministic.
	emsWave := time.Now()
	s.parallelHomes(func(h *simHome) {
		e.hourStats[h.id] = s.runEMSHour(h, e.envs[h.id], hour)
	})
	e.timer.Add("ems.wall", time.Since(emsWave))
	var hourTot emsHourStats
	for hi := range s.homes {
		st := e.hourStats[hi]
		e.perHomeSaved[hi] += st.savedKWh
		e.perHomeStandby[hi] += st.standbyKWh
		e.perHomeReward[hi] += st.rewardSum
		e.perHomeSteps[hi] += st.steps
		e.dayReward += st.rewardSum
		e.daySteps += st.steps
		hourTot.savedKWh += st.savedKWh
		hourTot.standbyKWh += st.standbyKWh
		hourTot.rewardSum += st.rewardSum
		hourTot.steps += st.steps
		if e.inEval() {
			e.savedByHour[hour] += st.savedKWh
		}
		e.timer.Add("ems-test", st.testDur)
		e.timer.Add("ems-train", st.trainDur)
	}
	// Scenario DER dispatch rides the same simulated hour: batteries, EV
	// sessions, and PV allocation step minute by minute under the (possibly
	// DR-overlaid) TOU price.
	if s.scn.hasDER() {
		derWave := time.Now()
		s.scn.runDERHour(s, day, hour)
		e.timer.Add("ems.wall", time.Since(derWave))
	}
	hourEnd := day*pecan.MinutesPerDay + (hour+1)*60
	// Advance the fabric clocks so FaultPlan windows (partitions,
	// crashes) track simulated time.
	s.setNetClock(hourEnd)
	s.noteClock(hourEnd)
	s.noteHour(day, hour, hourTot, e.perHomeSaved, e.perHomeStandby)

	// Local forecaster training bouts.
	if (hour+1)%cfg.TrainEveryHours == 0 {
		if err := s.trainForecasters(e.timer, hourEnd); err != nil {
			return err
		}
	}
	// Forecast-plane federation (β). Period knobs are read live from
	// s.cfg so the daemon's reconfiguration path takes effect at the
	// next hour boundary.
	if fires := firesInHour(s.cfg.BetaHours, hourEnd); fires > 0 && cfg.Method.SharesForecast() && cfg.Method != MethodCloud {
		if err := s.forecastRound(e.timer, fires); err != nil {
			return err
		}
	}
	// EMS-plane federation (γ). The round stays synchronous — the
	// next minute's action selection reads the averaged DQN — so its
	// elapsed time is wall time too.
	if fires := firesInHour(s.cfg.GammaHours, hourEnd); fires > 0 && cfg.Method.SharesEMS() {
		t0 := time.Now()
		if err := s.emsRound(e.timer, fires); err != nil {
			return err
		}
		e.timer.Add("ems.wall", time.Since(t0))
	}
	// Fleet-wide DER families federate on the same γ period over the EMS
	// plane (PFDRL only — partial deployments train locally).
	if fires := firesInHour(s.cfg.GammaHours, hourEnd); fires > 0 && cfg.Method == MethodPFDRL && s.scn != nil && len(s.scn.fams) > 0 {
		t0 := time.Now()
		if err := s.derRounds(e.timer, fires); err != nil {
			return err
		}
		e.timer.Add("ems.wall", time.Since(t0))
	}
	return nil
}

// endDay closes the current day's accounting: the Cloud baseline's nightly
// raw-upload cycle, the daily result rows, and — on the final day — the
// per-home summary fields.
func (e *Engine) endDay() error {
	s := e.sys
	cfg := s.cfg
	day, res := e.day, e.res

	// Cloud raw-data training happens nightly.
	if cfg.Method == MethodCloud {
		s.cloudDay(e.timer, day)
	}
	s.scn.endDay()

	daySaved, dayStandby := 0.0, 0.0
	for hi := range s.homes {
		daySaved += e.perHomeSaved[hi]
		dayStandby += e.perHomeStandby[hi]
	}
	res.DailySavedKWhPerHome = append(res.DailySavedKWhPerHome, daySaved/float64(len(s.homes)))
	frac := 0.0
	if dayStandby > 0 {
		frac = daySaved / dayStandby
	}
	res.DailySavedFrac = append(res.DailySavedFrac, frac)
	if e.daySteps == 0 {
		// Guarded here rather than silently emitting NaN: a zero-step day
		// means the configuration yielded no EMS decisions at all.
		return fmt.Errorf("core: day %d produced no EMS steps; check Homes (%d) and DevicesPerHome (%d)",
			day, cfg.Homes, cfg.DevicesPerHome)
	}
	res.DailyMeanReward = append(res.DailyMeanReward, e.dayReward/float64(e.daySteps))
	if day == cfg.Days-1 {
		res.PerHomeSavedKWhFinal = e.perHomeSaved
		for hi := range s.homes {
			f := 0.0
			if e.perHomeStandby[hi] > 0 {
				f = e.perHomeSaved[hi] / e.perHomeStandby[hi]
			}
			res.PerHomeSavedFracFinal = append(res.PerHomeSavedFracFinal, f)
			rw := 0.0
			if e.perHomeSteps[hi] > 0 {
				rw = e.perHomeReward[hi] / float64(e.perHomeSteps[hi])
			}
			res.PerHomeRewardFinal = append(res.PerHomeRewardFinal, rw)
		}
	}
	return nil
}

// Finish lands any β round still aggregating from the final hour and
// assembles the Result. It is legal only once every day has been stepped,
// and idempotent afterwards (the assembled Result is cached).
func (e *Engine) Finish() (*Result, error) {
	if e.finished {
		return e.res, nil
	}
	if !e.Done() {
		return nil, fmt.Errorf("core: Finish at day %d of %d; step the remaining days first", e.day, e.sys.cfg.Days)
	}
	s := e.sys
	cfg := s.cfg
	res := e.res

	// A β round begun on the final hour may still be aggregating.
	if err := s.joinForecastRounds(e.timer); err != nil {
		return nil, err
	}

	res.AccuracyByHour = e.accBuckets.Means()
	if len(res.AccuracySamples) > 0 {
		sum := 0.0
		for _, a := range res.AccuracySamples {
			sum += a
		}
		res.ForecastAccuracy = sum / float64(len(res.AccuracySamples))
	}
	norm := float64(len(s.homes) * e.evalDays)
	for i := range e.savedByHour {
		res.SavedByHour[i] = e.savedByHour[i] / norm
	}
	tail := cfg.Days / 5
	if tail < 1 {
		tail = 1
	}
	res.ConvergenceDay = metrics.ConvergenceDay(res.DailySavedFrac, 0.9, tail)

	res.ForecastTrainTime = e.timer.Get("fc-train")
	res.ForecastTestTime = e.timer.Get("fc-test")
	res.EMSTrainTime = e.timer.Get("ems-train")
	res.EMSTestTime = e.timer.Get("ems-test")
	res.ForecastTestWallTime = e.timer.Get("fc-test.wall")
	res.ForecastTrainWallTime = e.timer.Get("fc-train.wall")
	res.EMSWallTime = e.timer.Get("ems.wall")
	if s.fcNet != nil {
		res.ForecastNetStats = s.fcNet.Stats()
		res.ForecastCommTime = res.ForecastNetStats.SimulatedTime
		s.resil.absorbStats(res.ForecastNetStats)
	}
	if s.drlNet != nil {
		res.EMSNetStats = s.drlNet.Stats()
		res.EMSCommTime = res.EMSNetStats.SimulatedTime
		s.resil.absorbStats(res.EMSNetStats)
	}
	// Partition outage is a property of the physical link, not of the two
	// logical planes riding it: count the severed wall-clock once.
	s.resil.PartitionSeconds = cfg.FaultPlan.PartitionSeconds(cfg.Days * pecan.MinutesPerDay)
	res.ForecastComms = s.fcCommsTot
	res.EMSComms = s.emsCommsTot
	res.Resilience = s.resil
	if s.scn.hasDER() {
		der := s.scn.report
		res.DER = &der
	}
	e.finished = true
	return res, nil
}

package core

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/pecan"
)

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// DeviceForecast is one device's next-hour load forecast as served by the
// daemon: 60 per-minute kW predictions starting at Minute.
type DeviceForecast struct {
	DeviceType string    `json:"device_type"`
	Minute     int       `json:"minute"`
	PredKW     []float64 `json:"pred_kw"`
}

// DevicePlan is one device's next-hour control plan: the greedy (ε-free)
// action the home's current policy would take each minute.
type DevicePlan struct {
	DeviceType string   `json:"device_type"`
	Minute     int      `json:"minute"`
	Actions    []string `json:"actions"`
}

// serveClock returns the (day, hour) the serve endpoints answer for: the
// engine clock while the run is in progress, clamped to the final
// simulated hour once every day has been stepped (a finished fleet keeps
// serving its trained policy against the last day it saw).
func (e *Engine) serveClock() (day, hour int) {
	day, hour = e.day, e.hour
	if days := e.sys.cfg.Days; day >= days {
		day, hour = days-1, 23
	}
	return day, hour
}

// ForecastNextHour predicts the next hour of load for every device of one
// home using the home's current forecaster models. It is read-only with
// respect to simulation state — prediction writes only forecaster scratch
// buffers — so interleaving it between StepHour calls cannot perturb the
// run (the twin-run tests pin this). The caller must serialize it against
// stepping: the serve daemon calls it only under its mutex, while
// publishing the read view its GET routes serve.
func (e *Engine) ForecastNextHour(home int) ([]DeviceForecast, error) {
	s := e.sys
	if home < 0 || home >= len(s.homes) {
		return nil, fmt.Errorf("core: home %d outside [0,%d)", home, len(s.homes))
	}
	day, hour := e.serveClock()
	t := day*pecan.MinutesPerDay + hour*60
	h := s.homes[home]
	out := make([]DeviceForecast, 0, len(h.src.Traces))
	for _, tr := range h.src.Traces {
		fc := h.fcs[tr.Device.Type]
		pred := make([]float64, 60)
		if t < fc.Config().Window {
			// No history yet: assume standby, the dominant mode (the same
			// fallback predictDay uses for the first window of day 0).
			for m := range pred {
				pred[m] = tr.Device.StandbyKW
			}
		} else {
			// Day-aligned history window (bit-exact: the offset is a
			// multiple of MinutesPerDay, so phase features are unchanged).
			// Decoding writes only trace-local scratch, preserving the
			// perturbation-free guarantee — decode is deterministic and the
			// simulation never reads that scratch across calls.
			series, off := tr.DayWithHistory(day, fc.Config().Window)
			copy(pred, fc.Predict(series, t-off))
		}
		out = append(out, DeviceForecast{DeviceType: tr.Device.Type, Minute: t, PredKW: pred})
	}
	return out, nil
}

// PlanNextHour runs the home's current DQN policy greedily (no
// exploration, no learning, no RNG draws) over the next hour of every
// device environment and reports the minute-by-minute mode plan. Like
// ForecastNextHour it is perturbation-free between steps: Greedy does not
// advance the agent's counters or RNG stream, and observation building
// writes only scratch. It needs the same serialization against stepping.
func (e *Engine) PlanNextHour(home int) ([]DevicePlan, error) {
	s := e.sys
	if home < 0 || home >= len(s.homes) {
		return nil, fmt.Errorf("core: home %d outside [0,%d)", home, len(s.homes))
	}
	day, hour := e.serveClock()
	h := s.homes[home]

	// Mid-day the engine's own environments are current; at a day boundary
	// (or once the run is done) build throwaway ones from a fresh forecast
	// of the planning day. h.predDay may be overwritten here — harmless,
	// because beginDay recomputes it from scratch before anything in the
	// simulation reads it again.
	var homeEnvs []*energy.Env
	if e.dayPrepared && home < len(e.envs) {
		homeEnvs = e.envs[home]
	} else {
		for di, tr := range h.src.Traces {
			h.predDay[di] = s.predictDay(h, tr, day)
		}
		built, err := s.buildHomeDayEnvs(h, day)
		if err != nil {
			return nil, err
		}
		homeEnvs = built
	}

	obs := make([]float64, len(h.obsNext))
	out := make([]DevicePlan, 0, len(h.src.Traces))
	for di, tr := range h.src.Traces {
		env := homeEnvs[di]
		plan := DevicePlan{
			DeviceType: tr.Device.Type,
			Minute:     day*pecan.MinutesPerDay + hour*60,
			Actions:    make([]string, 60),
		}
		for m := 0; m < 60; m++ {
			state := s.stateInto(obs, env, hour*60+m)
			plan.Actions[m] = energy.Mode(h.agent.Greedy(state)).String()
		}
		out = append(out, plan)
	}
	return out, nil
}

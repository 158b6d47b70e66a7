package core

import (
	"fmt"

	"repro/internal/dqn"
	"repro/internal/energy"
	"repro/internal/fed"
	"repro/internal/fednet"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pecan"
	"repro/internal/pricing"
	"repro/internal/scenario"
)

// defaultScenarioMonth anchors DER pricing and PV output when the scenario
// sets no Seasonal block (the plain corpus has no calendar): high-summer,
// where both the TOU peak spread and PV yield are at their widest.
const defaultScenarioMonth = 6

// DERReport aggregates one run's scenario DER dispatch: energy flows,
// reward, EV deadline performance, and the DER plane's federation rounds.
// Result.DER carries it (nil when the run deployed no DER).
type DERReport struct {
	// Units is the number of dispatchable units built (battery + EV agents
	// plus passive PV installations, summed over homes).
	Units int
	// Steps counts DER dispatch decisions; RewardSum their summed reward
	// (cents, negative = net cost).
	Steps     int
	RewardSum float64
	// GridImportKWh / GridExportKWh split the DER grid exchange by
	// direction; exports include battery discharge and unconsumed PV.
	GridImportKWh, GridExportKWh float64
	// PVGeneratedKWh is total PV production; PVUsedKWh the share consumed
	// on-site by battery charging and EV sessions.
	PVGeneratedKWh, PVUsedKWh float64
	// EVDeadlineMisses / EVShortfallKWh tally departure deadlines missed
	// and the energy short of target at those departures.
	EVDeadlineMisses int
	EVShortfallKWh   float64
	// CostCents is the net TOU cost of the DER grid exchange (imports
	// charged, exports credited; deadline penalties are excluded — they are
	// reward shaping, not money). DailyCostCents is its per-day series.
	CostCents      float64
	DailyCostCents []float64
	// Rounds counts DER-plane federation rounds (fleet-wide families under
	// PFDRL only).
	Rounds int
}

// derUnit is one home's dispatchable DER device and its DQN policy.
type derUnit struct {
	specIdx int
	kind    string
	bat     *energy.Battery
	ev      *energy.EVCharger
	agent   *dqn.Agent
	// state/next are the unit-owned observation scratch buffers (the
	// replay buffer copies what it keeps).
	state, next []float64
}

// derFamily is one fleet-wide DER spec's per-home agent set — the unit of
// DER-plane federation (partial deployments train locally only).
type derFamily struct {
	specIdx int
	// kind is the federation round kind, e.g. "der/battery.0".
	kind   string
	agents []*dqn.Agent
}

// scenarioState is the runtime the configured scenario adds to a System:
// DER units and their policies, the demand-response pricing overlay, and
// the shared adversary. A nil *scenarioState (no scenario) leaves every
// hook inert and the run bit-identical to pre-scenario builds.
type scenarioState struct {
	spec       *scenario.Scenario
	adv        *fed.Adversary
	tariff     pricing.Tariff
	overlay    *pricing.Overlay // nil without DR events
	startMonth int

	units [][]*derUnit      // [home][unit], spec order
	pv    [][]energy.PVSpec // [home] passive PV installations
	fams  []derFamily

	report  DERReport
	dayCost float64
}

// buildScenario constructs the runtime for cfg.Scenario (nil when the
// config carries none). cfg is already validated.
func buildScenario(cfg Config) (*scenarioState, error) {
	sc := cfg.Scenario
	if sc == nil {
		return nil, nil
	}
	st := &scenarioState{spec: sc, tariff: pricing.VariableRate{}}
	if sc.Seasonal != nil {
		st.startMonth = sc.Seasonal.StartMonth
	}
	st.overlay = sc.Overlay(st.tariff)
	if plan := sc.AdversaryPlan(); !plan.Empty() {
		st.adv = fed.NewAdversary(plan)
	}

	st.units = make([][]*derUnit, cfg.Homes)
	st.pv = make([][]energy.PVSpec, cfg.Homes)
	for si := range sc.DER {
		spec := &sc.DER[si]
		var fam *derFamily
		if spec.FleetWide() && spec.Kind() != "pv" && cfg.Method == MethodPFDRL {
			st.fams = append(st.fams, derFamily{
				specIdx: si,
				kind:    fmt.Sprintf("der/%s.%d", spec.Kind(), si),
			})
			fam = &st.fams[len(st.fams)-1]
		}
		for hi := 0; hi < cfg.Homes; hi++ {
			if !spec.AppliesTo(hi) {
				continue
			}
			if spec.PV != nil {
				st.pv[hi] = append(st.pv[hi], *spec.PV)
				st.report.Units++
				continue
			}
			u := &derUnit{specIdx: si, kind: spec.Kind()}
			var stateDim, actions int
			switch {
			case spec.Battery != nil:
				bat, err := energy.NewBattery(*spec.Battery)
				if err != nil {
					return nil, fmt.Errorf("core: scenario DER[%d] home %d: %w", si, hi, err)
				}
				u.bat = bat
				stateDim, actions = bat.StateDim(), bat.Actions()
			default:
				ev, err := energy.NewEVCharger(*spec.EV)
				if err != nil {
					return nil, fmt.Errorf("core: scenario DER[%d] home %d: %w", si, hi, err)
				}
				u.ev = ev
				stateDim, actions = ev.StateDim(), ev.Actions()
			}
			// DER policy nets mirror the EMS agents' shape and cadence. The
			// seed block (9000+) is disjoint from every appliance-plane
			// stream, and InitSeed is shared per spec so fleet-wide families
			// start aligned for parameter averaging.
			u.agent = dqn.New(dqn.Config{
				StateDim:  stateDim,
				Actions:   actions,
				Hidden:    cfg.DQNHidden,
				BatchSize: cfg.DQNBatch,
				LearnRate: cfg.DQNLearnRate,
				Epsilon: dqn.EpsilonSchedule{
					Start: 1, End: 0.02,
					DecaySteps: epsilonDays(cfg) * pecan.MinutesPerDay,
				},
				Seed:     cfg.Seed + int64(9000+hi*64+si),
				InitSeed: cfg.Seed + int64(600+si),
			})
			u.state = make([]float64, stateDim)
			u.next = make([]float64, stateDim)
			st.units[hi] = append(st.units[hi], u)
			st.report.Units++
			if fam != nil {
				fam.agents = append(fam.agents, u.agent)
			}
		}
	}
	return st, nil
}

// hasDER reports whether any dispatch work exists (nil-receiver safe).
func (st *scenarioState) hasDER() bool {
	if st == nil {
		return false
	}
	return st.report.Units > 0
}

// adversary returns the shared adversary runtime, nil without a plan.
func (s *System) adversary() *fed.Adversary {
	if s.scn == nil {
		return nil
	}
	return s.scn.adv
}

// monthAt maps a simulated day to a calendar month for pricing and PV:
// anchored at the scenario's StartMonth (default high summer) and
// advancing every 30 days, matching pecan's ~30.4-day seasonal phase.
func (st *scenarioState) monthAt(day int) int {
	m := st.startMonth
	if m < 1 {
		m = defaultScenarioMonth
	}
	return (m-1+day/30)%12 + 1
}

// priceAt is the effective TOU price with any DR window applied.
func (st *scenarioState) priceAt(day, month, minuteOfDay int) float64 {
	if st.overlay != nil {
		return st.overlay.PriceAt(day, month, minuteOfDay)
	}
	return st.tariff.PricePerKWh(month, minuteOfDay)
}

// beginDay resets the per-day accumulators.
func (st *scenarioState) beginDay() {
	if st == nil {
		return
	}
	st.dayCost = 0
}

// endDay closes the day's cost row.
func (st *scenarioState) endDay() {
	if st == nil {
		return
	}
	st.report.DailyCostCents = append(st.report.DailyCostCents, st.dayCost)
}

// runDERHour dispatches every home's DER units through one simulated hour:
// per minute, each unit observes (price, PV headroom, device state), acts
// ε-greedily, steps its device, and learns on the EMS cadence. Homes run
// serially in index order — the fleet is a handful of small nets and the
// serial schedule keeps float accumulation deterministic.
func (st *scenarioState) runDERHour(s *System, day, hour int) {
	month := st.monthAt(day)
	priceRef := pricing.MeanPrice(st.tariff, month)
	learnEvery := s.cfg.LearnEveryMinutes
	for m := hour * 60; m < (hour+1)*60; m++ {
		price := st.priceAt(day, month, m)
		curtail := st.spec.CurtailAt(day, m)
		done := m == pecan.MinutesPerDay-1
		var nextPrice float64
		if !done {
			nextPrice = st.priceAt(day, month, m+1)
		}
		for hi := range st.units {
			pvAvail := 0.0
			for _, pv := range st.pv[hi] {
				pvAvail += pv.OutputKW(month, m)
			}
			st.report.PVGeneratedKWh += pvAvail / 60
			// Next-minute PV headroom is quoted pre-consumption: the units'
			// next-state observations share it without re-running dispatch.
			nextPV := 0.0
			if !done {
				for _, pv := range st.pv[hi] {
					nextPV += pv.OutputKW(month, m+1)
				}
			}
			for _, u := range st.units[hi] {
				var step energy.DERStep
				var action int
				if u.bat != nil {
					state := u.bat.StateInto(u.state, price, priceRef, pvAvail, m)
					action = u.agent.SelectAction(state)
					step = u.bat.Step(action, pvAvail, price)
				} else {
					state := u.ev.StateInto(u.state, price, priceRef, m)
					action = u.agent.SelectAction(state)
					step = u.ev.Step(action, pvAvail, price, curtail, m)
				}
				pvAvail -= step.PVUsedKW
				st.report.Steps++
				st.report.RewardSum += step.Reward
				st.report.PVUsedKWh += step.PVUsedKW / 60
				if step.GridKW > 0 {
					st.report.GridImportKWh += step.GridKW / 60
				} else {
					st.report.GridExportKWh += -step.GridKW / 60
				}
				cost := step.GridKW / 60 * price * 100
				st.report.CostCents += cost
				st.dayCost += cost
				if step.DeadlineMiss {
					st.report.EVDeadlineMisses++
					st.report.EVShortfallKWh += step.ShortfallKWh
				}
				var next []float64
				if !done {
					if u.bat != nil {
						next = u.bat.StateInto(u.next, nextPrice, priceRef, nextPV, m+1)
					} else {
						next = u.ev.StateInto(u.next, nextPrice, priceRef, m+1)
					}
				}
				u.agent.Observe(dqn.Transition{
					State: u.state, Action: action, Reward: step.Reward, Next: next, Done: done,
				})
				if m%learnEvery == 0 {
					u.agent.Learn()
				}
			}
			// Whatever PV the units left unconsumed exports to the grid.
			st.report.GridExportKWh += pvAvail / 60
			dayCredit := pvAvail / 60 * price * 100
			st.report.CostCents -= dayCredit
			st.dayCost -= dayCredit
		}
	}
}

// derRounds runs one γ-period federation round per fleet-wide DER family
// over the EMS plane (PFDRL only), reusing the EMS round workspace — the
// rounds are synchronous and sequential, so the shared buffers are free.
func (s *System) derRounds(timer *metrics.Timer, fires int) error {
	timer.Start("ems-train")
	defer timer.Stop("ems-train")
	st := s.scn
	alpha := s.cfg.sharedTrainableLayers()
	ws := s.emsWorkspace()
	for fi := range st.fams {
		fam := &st.fams[fi]
		models := make([]*nn.Sequential, len(fam.agents))
		for i, a := range fam.agents {
			models[i] = a.Online
		}
		var rep fed.RoundReport
		var err error
		switch s.drlNet.Config().Topology {
		case fednet.Sampled:
			rep, err = fed.BeginSampledGossipRound(s.drlNet, models, fam.kind, alpha, ws).Join()
		case fednet.Cluster:
			rep, err = fed.ClusterRound(s.drlNet, models, fam.kind, alpha, ws)
		default:
			rep, err = fed.BeginDecentralizedRound(s.drlNet, models, fam.kind, alpha, ws).Join()
		}
		if err != nil {
			return err
		}
		s.resil.absorb(rep)
		s.emsCommsTot.Absorb(rep)
		s.noteRound("ems", rep)
		st.report.Rounds++
		for _, a := range fam.agents {
			a.SyncTarget()
		}
		if fires > 1 {
			shared := models[0].Params()
			if alpha >= 0 {
				shared = models[0].ParamsOfTrainableRange(0, alpha)
			}
			chargeRefires(s.drlNet, &s.emsCommsTot, s.drlComms, shared, nn.ParamsWireSize(shared), fires-1)
		}
	}
	return nil
}

// emsWorkspace returns the (lazily created) EMS-plane round workspace,
// shared by the γ round and the DER family rounds.
func (s *System) emsWorkspace() *fed.RoundWorkspace {
	if s.drlWS == nil {
		s.drlWS = &fed.RoundWorkspace{Comms: s.drlComms, Tel: s.drlRoundTel, Adv: s.adversary()}
	}
	return s.drlWS
}

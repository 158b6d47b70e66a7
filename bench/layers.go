package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dqn"
	"repro/internal/energy"
	"repro/internal/fed"
	"repro/internal/fednet"
	"repro/internal/forecast"
	"repro/internal/nn"
	"repro/internal/pecan"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// layerInputs is what the lifecycle hands the traced run's layer table.
type layerInputs struct {
	eng      *core.Engine
	res      *core.Result
	batch    stepTimes
	serve    *serveResult
	newSysMS []float64
}

// prober times calls into one layer's exported functions from outside.
// Every probe reports the median of its timed calls; a probe is one span.
type prober struct {
	tr *tracer
	// calls and warm are the timed and untimed call counts a cheap probe
	// gets; budget caps the time a heavy probe may take, trading calls
	// (never fewer than minCalls) for wall.
	calls, warm, minCalls int
	budget                time.Duration
}

func newProber(tr *tracer, quick bool) *prober {
	if quick {
		return &prober{tr: tr, calls: 3, warm: 1, minCalls: 2, budget: 5 * time.Millisecond}
	}
	return &prober{tr: tr, calls: 200, warm: 20, minCalls: 5, budget: 150 * time.Millisecond}
}

// ns returns the median wall time of fn in nanoseconds. inner > 1 runs fn
// that many times per sample, for calls too short to time one by one.
func (p *prober) ns(name string, inner int, fn func()) float64 {
	id := p.tr.begin("probe."+name, "")
	defer p.tr.end(id)
	sample := func() float64 {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(inner)
	}
	start := time.Now()
	for i := 0; i < p.warm && time.Since(start) < p.budget/2; i++ {
		sample()
	}
	start = time.Now()
	var xs []float64
	for len(xs) < p.calls && (len(xs) < p.minCalls || time.Since(start) < p.budget) {
		xs = append(xs, sample())
	}
	return median(xs)
}

// rounds is how many timed iterations a multi-section probe (wire, fed)
// runs after its warm-up.
func (p *prober) rounds(want int) (warm, timed int) {
	if p.calls < want {
		return 1, p.calls
	}
	return 2, want
}

// cutDays returns cfg shortened to its first days, dropping scenario
// events that fall beyond the cut.
func cutDays(cfg core.Config, days int) core.Config {
	cfg.Days = days
	if sc := cfg.Scenario; sc != nil {
		cut := *sc
		cut.Events = nil
		for _, ev := range sc.Events {
			if ev.Day < days {
				cut.Events = append(cut.Events, ev)
			}
		}
		cfg.Scenario = &cut
	}
	return cfg
}

// cutRun is one complete batch run of a shortened configuration.
type cutRun struct {
	eng   *core.Engine
	res   *core.Result
	steps stepTimes
	wallS float64 // StepHour loop plus Finish
}

func runCut(cfg core.Config, procs int, name string, tr *tracer) (*cutRun, error) {
	if procs != pinnedProcs {
		runtime.GOMAXPROCS(procs)
		sched.SetDefaultSize(procs)
		defer pinHost()
	}
	id := tr.begin(name, "")
	defer tr.end(id)
	eng, _, _, err := buildEngine(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	steps, err := stepHours(eng, -1, tr)
	if err != nil {
		return nil, err
	}
	res, err := eng.Finish()
	if err != nil {
		return nil, fmt.Errorf("bench: %s: Finish: %w", name, err)
	}
	return &cutRun{eng: eng, res: res, steps: steps, wallS: time.Since(t0).Seconds()}, nil
}

// layerMetrics fills the traced run's per-layer table. A probe that cannot
// run records a failed check instead of a number.
func layerMetrics(rep *report, w workload, o runOpts, tr *tracer, in layerInputs) {
	id := tr.begin("layers", "")
	defer tr.end(id)
	p := newProber(tr, o.Quick)
	set := func(name string, v float64) { rep.Layers.set(perLayer, name, v) }
	cfg := w.Config

	// core: hour classes over the batch phase.
	total := sum(in.batch.all)
	for _, class := range hourClasses {
		xs := in.batch.byClass[class]
		if len(xs) > 0 { // a class this workload has no hours of has no median
			rep.LayerExtra.set(layerOnly, "core.hour_"+class+"_ms", median(xs))
		}
		set("core."+class+"_share", sum(xs)/total)
		rep.Samples["hours_"+class] = len(xs)
	}
	set("core.new_system_ms", median(in.newSysMS))

	if err := coreCuts(rep, cfg, p, set); err != nil {
		rep.check("core cut runs", false, "%v", err)
	}
	if err := forecastProbes(cfg, in.eng.System().Dataset(), p, set); err != nil {
		rep.check("forecast probes", false, "%v", err)
	}
	nnProbes(cfg, p, set)
	agent := dqnProbes(cfg, p, set)
	if err := energyProbes(cfg, in.eng.System().Dataset(), p, set); err != nil {
		rep.check("energy probes", false, "%v", err)
	}
	base := agent.Online.ParamsOfTrainableRange(0, sharedLayers(cfg))
	if err := wireProbes(base, p, set); err != nil {
		rep.check("wire probes", false, "%v", err)
	}
	if err := fedProbes(cfg, base, o.Quick, p, set); err != nil {
		rep.check("fed probes", false, "%v", err)
	}
	set("fednet.sim_comm_s_per_day", (in.res.ForecastCommTime+in.res.EMSCommTime).Seconds()/float64(cfg.Days))
	if err := dataProbes(cfg, in.eng.System().Dataset(), p, set); err != nil {
		rep.check("pecan/store probes", false, "%v", err)
	}
	schedProbes(rep, cfg, p, set)
	serveLayer(rep, w, in.serve, set)
	intentWarnings(rep, w, in.serve)
}

// sharedLayers maps the paper's α onto the trainable-layer count the
// federation rounds share, as core does: α ≥ the hidden depth shares all.
func sharedLayers(cfg core.Config) int {
	if cfg.Alpha >= len(cfg.DQNHidden) {
		return -1
	}
	return cfg.Alpha
}

// coreCuts runs the one-day cuts: P=2 and P=1 for the parallel speedup and
// the Result wall-time split, the scenario-free twin for the DER gap, and
// the snapshot probes on whichever cut the checkpoint format accepts.
func coreCuts(rep *report, cfg core.Config, p *prober, set func(string, float64)) error {
	day := cutDays(cfg, 1)
	p2, err := runCut(day, pinnedProcs, "cut.p2", p.tr)
	if err != nil {
		return err
	}
	set("core.fc_train_wall_s", p2.res.ForecastTrainWallTime.Seconds())
	set("core.fc_test_wall_s", p2.res.ForecastTestWallTime.Seconds())
	set("core.ems_wall_s", p2.res.EMSWallTime.Seconds())
	set("core.unattributed_s", p2.wallS-(p2.res.ForecastTrainWallTime+p2.res.ForecastTestWallTime+p2.res.EMSWallTime).Seconds())

	if rep.DegradedHost {
		rep.Skipped["core.speedup_p2"] = fmt.Sprintf("num_cpu<%d", pinnedProcs)
	} else {
		p1, err := runCut(day, 1, "cut.p1", p.tr)
		if err != nil {
			return err
		}
		set("core.speedup_p2", p1.wallS/p2.wallS)
	}

	snap := p2
	if cfg.Scenario != nil {
		twin := day
		twin.Scenario = nil
		tw, err := runCut(twin, pinnedProcs, "cut.twin", p.tr)
		if err != nil {
			return err
		}
		snap = tw
		if cfg.Scenario.HasDER() {
			rep.LayerExtra.set(layerOnly, "core.der_hour_ms",
				median(p2.steps.byClass["plain"])-median(tw.steps.byClass["plain"]))
			rep.LayerExtra.set(layerOnly, "core.der_twin_gap_frac", (p2.wallS-tw.wallS)/p2.wallS)
		}
	}

	var blob bytes.Buffer
	writeNS := p.ns("core.snapshot_write", 1, func() {
		blob.Reset()
		if e := snap.eng.WriteSnapshot(&blob); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("bench: WriteSnapshot: %w", err)
	}
	set("core.snapshot_write_ms", writeNS/1e6)
	set("core.snapshot_mb", float64(blob.Len())/1e6)
	resumeNS := p.ns("core.resume", 1, func() {
		if _, e := core.ResumeEngine(bytes.NewReader(blob.Bytes())); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("bench: ResumeEngine: %w", err)
	}
	set("core.resume_ms", resumeNS/1e6)
	return nil
}

// forecastProbes builds one forecaster per home for the corpus's first
// device type, exactly as core sizes them, and times the fleet-batched and
// per-member training and prediction calls.
func forecastProbes(cfg core.Config, ds *pecan.Dataset, p *prober, set func(string, float64)) error {
	devType := ds.Homes[0].Traces[0].Device.Type
	day := 1
	if cfg.Days < 2 {
		day = 0
	}
	var fcs []forecast.Forecaster
	var train, hist [][]float64
	var ts []int
	for _, h := range ds.Homes {
		tr := h.TraceByType(devType)
		if tr == nil {
			return fmt.Errorf("bench: home %d has no %s trace", h.ID, devType)
		}
		fc := forecast.DefaultConfig(tr.Device.OnKW)
		fc.Window, fc.Hidden, fc.Horizon, fc.Seed = cfg.ForecastWindow, cfg.ForecastHidden, 60, cfg.Seed+7
		f, err := forecast.New(cfg.ForecastKind, fc)
		if err != nil {
			return err
		}
		fcs = append(fcs, f)
		stop := cfg.TrainLookbackHours * 60
		if stop > tr.Len() {
			stop = tr.Len()
		}
		train = append(train, append([]float64(nil), tr.Window(0, stop)...))
		series, off := tr.DayWithHistory(day, cfg.ForecastWindow)
		hist = append(hist, append([]float64(nil), series...))
		if ts == nil {
			for hour := 0; hour < 24; hour++ {
				if t := day*pecan.MinutesPerDay + hour*60 - off; t >= cfg.ForecastWindow {
					ts = append(ts, t)
				}
			}
		}
	}
	hb, err := forecast.NewHomeBatch(fcs)
	if err != nil {
		return err
	}
	lockstep := true
	set("forecast.train_bout_ms", p.ns("forecast.train_bout", 1, func() {
		_, ok := hb.TrainEpochs(train, cfg.TrainBoutEpochs)
		lockstep = lockstep && ok
	})/1e6)
	if !lockstep {
		return fmt.Errorf("bench: HomeBatch.TrainEpochs declined equal-length windows")
	}
	set("forecast.train_member_ms", p.ns("forecast.train_member", 1, func() {
		fcs[0].TrainEpochs(train[0], cfg.TrainBoutEpochs)
	})/1e6)
	set("forecast.predict_day_ms", p.ns("forecast.predict_day", 1, func() { hb.PredictBatch(hist, ts) })/1e6)
	set("forecast.predict_hour_us", p.ns("forecast.predict_hour", 1, func() { fcs[0].Predict(hist[0], ts[len(ts)/2]) })/1e3)
	return nil
}

func stateDim(cfg core.Config) int {
	d := cfg.LookAhead + cfg.LookBack
	if cfg.TimeFeatures {
		d += 2
	}
	return d
}

// nnProbes times Sequential forward+backward at the forecaster's LSTM
// shape and the DQN's MLP shape, and the two tensor kernels under them.
func nnProbes(cfg core.Config, p *prober, set func(string, float64)) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := &nn.SGD{LR: 1e-6, Clip: 1}
	const fcBatch = 16 // forecast.DefaultConfig's minibatch

	lstm := nn.NewLSTMRegressor(rng, cfg.ForecastWindow, cfg.ForecastHidden, 60)
	lx := tensor.RandNormal(rng, fcBatch, cfg.ForecastWindow, 0, 1)
	ly := tensor.RandNormal(rng, fcBatch, 60, 0, 1)
	set("nn.lstm_fwd_bwd_us", p.ns("nn.lstm_fwd_bwd", 1, func() { nn.FitBatch(lstm, nn.MSE{}, opt, lx, ly) })/1e3)

	sd := stateDim(cfg)
	widths := append(append([]int{sd}, cfg.DQNHidden...), energy.NumModes)
	mlp := nn.NewMLP(rng, widths...)
	mx := tensor.RandNormal(rng, cfg.DQNBatch, sd, 0, 1)
	my := tensor.RandNormal(rng, cfg.DQNBatch, energy.NumModes, 0, 1)
	set("nn.mlp_fwd_bwd_us", p.ns("nn.mlp_fwd_bwd", 1, func() { nn.FitBatch(mlp, nn.Huber{Delta: 1}, opt, mx, my) })/1e3)

	// The workload's dominant product: the LSTM's recurrent gate product
	// under the LSTM forecaster, a DQN hidden layer otherwise.
	m, k, n := cfg.DQNBatch, cfg.DQNHidden[0], cfg.DQNHidden[0]
	if cfg.ForecastKind == forecast.KindLSTM {
		m, k, n = fcBatch, cfg.ForecastHidden, 4*cfg.ForecastHidden
	}
	a, b, dst := tensor.RandNormal(rng, m, k, 0, 1), tensor.RandNormal(rng, k, n, 0, 1), tensor.New(m, n)
	ns := p.ns("tensor.matmul", 64, func() { tensor.MatMulInto(dst, a, b) })
	set("tensor.matmul_gflops", 2*float64(m*k*n)/ns)

	h := cfg.DQNHidden[0]
	x := tensor.RandNormal(rng, cfg.DevicesPerHome, sd, 0, 1)
	wt, bias, out := tensor.RandNormal(rng, sd, h, 0, 1), tensor.New(1, h), tensor.New(cfg.DevicesPerHome, h)
	set("tensor.dense_forward_ns", p.ns("tensor.dense_forward", 64, func() { tensor.DenseForwardInto(out, x, wt, bias) }))
}

// dqnProbes builds a home's agent as core does, fills its replay memory,
// and times the four calls the EMS hour and the plan route make.
func dqnProbes(cfg core.Config, p *prober, set func(string, float64)) *dqn.Agent {
	sd := stateDim(cfg)
	agent := dqn.New(dqn.Config{
		StateDim:  sd,
		Actions:   energy.NumModes,
		Hidden:    cfg.DQNHidden,
		BatchSize: cfg.DQNBatch,
		LearnRate: cfg.DQNLearnRate,
		Epsilon: dqn.EpsilonSchedule{
			Start: 1, End: 0.02,
			DecaySteps: cfg.EpsilonDecayDays * pecan.MinutesPerDay * cfg.DevicesPerHome,
		},
		Seed:     cfg.Seed + 1000,
		InitSeed: cfg.Seed + 500,
	})
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	state, next := make([]float64, sd), make([]float64, sd)
	transition := func(i int) dqn.Transition {
		for j := range state {
			state[j], next[j] = rng.Float64(), rng.Float64()
		}
		return dqn.Transition{State: state, Action: i % energy.NumModes, Reward: float64(i%7) - 3, Next: next}
	}
	for i := 0; i < agent.Config().MemoryCapacity; i++ {
		agent.Observe(transition(i))
	}
	states := tensor.RandUniform(rng, cfg.DevicesPerHome, sd, 0, 1)
	actions := make([]int, cfg.DevicesPerHome)
	// Anneal exploration first: at ε = 1 SelectActions never runs the network.
	for i := 0; i < 2*agent.Config().Epsilon.DecaySteps && agent.Epsilon() > agent.Config().Epsilon.End; i++ {
		agent.SelectActions(states, actions)
	}
	tn := transition(0)
	set("dqn.select_actions_us", p.ns("dqn.select_actions", 1, func() { agent.SelectActions(states, actions) })/1e3)
	set("dqn.learn_us", p.ns("dqn.learn", 1, func() { agent.Learn() })/1e3)
	set("dqn.observe_ns", p.ns("dqn.observe", 64, func() { agent.Observe(tn) }))
	set("dqn.greedy_us", p.ns("dqn.greedy", 16, func() { agent.Greedy(state) })/1e3)
	return agent
}

// energyProbes times the device environment on a corpus day and the DER
// devices at the benchmark scenario's specs.
func energyProbes(cfg core.Config, ds *pecan.Dataset, p *prober, set func(string, float64)) error {
	tr := ds.Homes[0].Traces[0]
	truth := tr.DayInto(0, nil)
	env, err := energy.NewEnv(tr.Device, append([]float64(nil), truth...), truth)
	if err != nil {
		return err
	}
	env.LookAhead, env.LookBack, env.SensorDelay = cfg.LookAhead, cfg.LookBack, cfg.SensorDelayMinutes
	env.Reset()
	i := 0
	set("energy.env_step_ns", p.ns("energy.env_step", 64, func() {
		if _, _, done := env.Step(energy.Mode(i % energy.NumModes)); done {
			env.Reset()
		}
		i++
	}))
	obs := make([]float64, env.StateDim())
	set("energy.state_into_ns", p.ns("energy.state_into", 64, func() {
		env.StateInto(obs, i%env.Len())
		i++
	}))

	sc, err := scenario.Parse(der24JSON)
	if err != nil {
		return err
	}
	var bat *energy.Battery
	var ev *energy.EVCharger
	for _, d := range sc.DER {
		switch {
		case d.Battery != nil:
			bat, err = energy.NewBattery(*d.Battery)
		case d.EV != nil:
			ev, err = energy.NewEVCharger(*d.EV)
		}
		if err != nil {
			return err
		}
	}
	if bat == nil || ev == nil {
		return fmt.Errorf("bench: scenarios/der24.json needs a battery and an EV spec")
	}
	set("energy.battery_step_ns", p.ns("energy.battery_step", 64, func() {
		bat.Step(i%bat.Actions(), 1.5, 12)
		i++
	}))
	set("energy.ev_step_ns", p.ns("energy.ev_step", 64, func() {
		ev.Step(i%ev.Actions(), 1.5, 12, 0, i%pecan.MinutesPerDay)
		i++
	}))
	return nil
}

// drift applies SGD-sized relative movement to every parameter: the regime
// the delta codec sees between federation rounds.
func drift(params []*tensor.Matrix, rng *rand.Rand) {
	for _, m := range params {
		for j := range m.Data {
			m.Data[j] *= 1 + rng.NormFloat64()*1e-4
		}
	}
}

// wireProbes times each codec level on the DQN base-layer parameter set.
func wireProbes(base []*tensor.Matrix, p *prober, set func(string, float64)) error {
	levels := []struct {
		name string
		opts wire.Options
	}{
		{"dense", wire.Options{Level: wire.Dense}},
		{"delta", wire.Options{Level: wire.Delta}},
		{"topk", wire.Options{Level: wire.TopK, TopKFrac: 0.05}},
	}
	const kind = "probe"
	for _, lv := range levels {
		id := p.tr.begin("probe.wire."+lv.name, "")
		x := wire.NewExchange(lv.opts)
		params := nn.CloneParams(base)
		staged, decoded := nn.CloneParams(base), nn.CloneParams(base)
		rng := rand.New(rand.NewSource(7))
		var buf []byte
		var enc, fold, dec, size []float64
		for it := 0; it < p.warm+p.calls; it++ {
			drift(params, rng)
			t0 := time.Now()
			out, err := x.EncodeInto(buf[:0], 0, kind, params)
			t1 := time.Now()
			if err != nil {
				return err
			}
			buf = out
			if err := x.Validate(0, kind, params, buf); err != nil {
				return err
			}
			for _, m := range staged {
				m.Zero()
			}
			t2 := time.Now()
			err = x.FoldInto(staged, nil, 0, kind, buf, 1)
			t3 := time.Now()
			if err != nil {
				return err
			}
			err = x.DecodeInto(decoded, 0, kind, buf)
			t4 := time.Now()
			if err != nil {
				return err
			}
			if it < p.warm { // the first encode of a stream is a dense keyframe
				continue
			}
			enc = append(enc, float64(t1.Sub(t0).Nanoseconds())/1e3)
			fold = append(fold, float64(t3.Sub(t2).Nanoseconds())/1e3)
			dec = append(dec, float64(t4.Sub(t3).Nanoseconds())/1e3)
			size = append(size, float64(len(buf)))
		}
		p.tr.end(id)
		set("wire."+lv.name+".encode_us", median(enc))
		set("wire."+lv.name+".fold_us", median(fold))
		set("wire."+lv.name+".decode_us", median(dec))
		set("wire."+lv.name+".payload_bytes", median(size))
	}
	return nil
}

// fedProbes runs federation rounds over a 24-agent fleet of DQN-shaped
// models with the workload's codec: all-to-all (what every workload uses)
// and, as no-change probes for an all-to-all optimisation, cluster and
// sampled gossip.
func fedProbes(cfg core.Config, base []*tensor.Matrix, quick bool, p *prober, set func(string, float64)) error {
	agents, clusterSize, sampleK := 24, 6, 3
	if quick {
		agents, clusterSize, sampleK = 4, 2, 1
	}
	sd := stateDim(cfg)
	widths := append(append([]int{sd}, cfg.DQNHidden...), energy.NumModes)
	alpha := sharedLayers(cfg)
	degraded := 0
	round := func(name string, nc fednet.Config, run func(*fednet.Network, []*nn.Sequential, *fed.RoundWorkspace) (fed.RoundReport, error)) (ms, msgs, bytes float64, err error) {
		id := p.tr.begin("probe."+name, "")
		defer p.tr.end(id)
		nc.Seed = cfg.Seed
		net, err := fednet.NewChecked(agents, nc)
		if err != nil {
			return 0, 0, 0, err
		}
		models := make([]*nn.Sequential, agents)
		drifts := make([]*rand.Rand, agents)
		for i := range models {
			models[i] = nn.NewMLP(rand.New(rand.NewSource(cfg.Seed+500)), widths...)
			drifts[i] = rand.New(rand.NewSource(cfg.Seed + 1000 + int64(i)))
		}
		ws := &fed.RoundWorkspace{Comms: wire.NewExchange(cfg.Comms)}
		warm, timed := p.rounds(10)
		var mss, msgss, bytess []float64
		for r := 0; r < warm+timed; r++ {
			for i, m := range models {
				drift(m.Params(), drifts[i])
			}
			t0 := time.Now()
			rr, err := run(net, models, ws)
			el := time.Since(t0)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("bench: %s round %d: %w", name, r, err)
			}
			if rr.Degraded() {
				degraded++
			}
			if r >= warm {
				mss = append(mss, float64(el.Nanoseconds())/1e6)
				msgss = append(msgss, float64(rr.Messages))
				bytess = append(bytess, float64(rr.BytesSent))
			}
		}
		return median(mss), median(msgss), median(bytess), nil
	}

	ms, msgs, bytes, err := round("fed.round", fednet.Config{Topology: fednet.AllToAll},
		func(net *fednet.Network, ms []*nn.Sequential, ws *fed.RoundWorkspace) (fed.RoundReport, error) {
			return fed.BeginDecentralizedRound(net, ms, "probe", alpha, ws).Join()
		})
	if err != nil {
		return err
	}
	set("fed.round_ms", ms)
	set("fed.round_msgs", msgs)
	set("fed.round_bytes", bytes)
	ms, _, _, err = round("fed.cluster_round", fednet.Config{Topology: fednet.Cluster, ClusterSize: clusterSize},
		func(net *fednet.Network, ms []*nn.Sequential, ws *fed.RoundWorkspace) (fed.RoundReport, error) {
			return fed.ClusterRound(net, ms, "probe", alpha, ws)
		})
	if err != nil {
		return err
	}
	set("fed.cluster_round_ms", ms)
	ms, _, _, err = round("fed.sampled_round", fednet.Config{Topology: fednet.Sampled, SampleK: sampleK},
		func(net *fednet.Network, ms []*nn.Sequential, ws *fed.RoundWorkspace) (fed.RoundReport, error) {
			return fed.BeginSampledGossipRound(net, ms, "probe", alpha, ws).Join()
		})
	if err != nil {
		return err
	}
	set("fed.sampled_round_ms", ms)
	set("fed.degraded_rounds", float64(degraded))

	net := fednet.New(agents, fednet.Config{Topology: fednet.AllToAll, Seed: cfg.Seed})
	payload := make([]byte, wire.DenseSize(base))
	var berr error
	set("fednet.broadcast_us", p.ns("fednet.broadcast", 1, func() {
		if err := net.Broadcast(0, "probe", payload); err != nil {
			berr = err
		}
		for a := 1; a < agents; a++ {
			net.Collect(a)
		}
	})/1e3)
	return berr
}

// dataProbes times corpus generation, the trace accessor the engine calls
// every day, and the block codec on one of the workload's own day blocks.
func dataProbes(cfg core.Config, ds *pecan.Dataset, p *prober, set func(string, float64)) error {
	gen := pecan.Config{Seed: cfg.Seed, Homes: cfg.Homes, Days: 1, DevicesPerHome: cfg.DevicesPerHome}
	set("pecan.generate_ms_per_home_day", p.ns("pecan.generate", 1, func() { pecan.Generate(gen) })/1e6/float64(cfg.Homes))
	tr := ds.Homes[0].Traces[0]
	d := 0
	set("pecan.day_with_history_us", p.ns("pecan.day_with_history", 1, func() {
		tr.DayWithHistory(d%cfg.Days, cfg.ForecastWindow)
		d++
	})/1e3)
	points := 0
	for _, h := range ds.Homes {
		for _, t := range h.Traces {
			points += t.Len()
		}
	}
	set("pecan.storage_bytes_per_point", float64(ds.StorageBytes())/float64(points))

	samples := tr.DayInto(cfg.Days-1, nil)
	block, err := store.EncodeBlockQuantized(nil, samples, 0)
	if err != nil {
		return err
	}
	mb := float64(8*len(samples)) / 1e6
	var dst []float64
	ns := p.ns("store.decode", 1, func() {
		out, e := store.DecodeBlock(block, len(samples), dst)
		if e != nil {
			err = e
		}
		dst = out
	})
	if err != nil {
		return err
	}
	set("store.decode_mb_per_s", mb/(ns/1e9))
	var buf []byte
	ns = p.ns("store.encode", 1, func() {
		out, e := store.EncodeBlockQuantized(buf[:0], samples, 0)
		if e != nil {
			err = e
		}
		buf = out
	})
	if err != nil {
		return err
	}
	set("store.encode_mb_per_s", mb/(ns/1e9))
	set("store.bytes_per_point", float64(len(block))/float64(len(samples)))
	return nil
}

// spin is a fixed CPU-bound body for the scheduler speedup probe.
func spin(iters int) float64 {
	x := 1.0
	for i := 0; i < iters; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

// schedProbes times an empty ParallelFor over the fleet (pure dispatch
// cost) and the speedup of a fixed CPU-bound body at P=2 over P=1.
func schedProbes(rep *report, cfg core.Config, p *prober, set func(string, float64)) {
	set("sched.dispatch_us", p.ns("sched.dispatch", 16, func() {
		sched.Default().ParallelFor(cfg.Homes, 1, func(lo, hi int) {})
	})/1e3)
	if rep.DegradedHost {
		rep.Skipped["sched.speedup_p2"] = fmt.Sprintf("num_cpu<%d", pinnedProcs)
		return
	}
	one, two := sched.NewPool(1), sched.NewPool(pinnedProcs)
	defer one.Close()
	defer two.Close()
	var sink [8]float64 // keeps the spin loops from being optimised away
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i] = spin(500_000)
		}
	}
	t1 := p.ns("sched.spin_p1", 1, func() { one.ParallelFor(len(sink), 1, body) })
	t2 := p.ns("sched.spin_p2", 1, func() { two.ParallelFor(len(sink), 1, body) })
	set("sched.speedup_p2", t1/t2)
}

// serveLayer derives the serve metrics from the run's serve phase: the
// idle route costs for every workload, the open-loop figures for the serve
// workload.
func serveLayer(rep *report, w workload, sv *serveResult, set func(string, float64)) {
	var idleP50 [numRoutes]float64
	for route := range idleP50 {
		idleP50[route] = median(sv.idleUS[route])
		set("serve."+routeNames[route]+"_us", idleP50[route])
	}
	if !w.openLoop() {
		return
	}
	extra := func(name string, v float64) { rep.LayerExtra.set(layerOnly, name, v) }
	stalled := 0
	for _, r := range sv.reads {
		if !r.ok || float64(r.done.Sub(r.due).Nanoseconds())/1e3 > 10*idleP50[r.route] {
			stalled++
		}
	}
	extra("serve.stalled_frac", float64(stalled)/float64(len(sv.reads)))
	extra("serve.hours_per_s", float64(sv.hoursAdvanced)/sv.wall.Seconds())
	late := sv.latenessMS(0, sv.window)
	extra("serve.gen_late_p50_ms", quantile(late, 0.50))
	extra("serve.gen_late_p99_ms", quantile(late, 0.99))
	ms := make([]float64, len(sv.checkpointS))
	for i, s := range sv.checkpointS {
		ms[i] = s * 1e3
	}
	extra("serve.checkpoint_post_ms", median(ms))
}

// intentWarnings flags a workload that has quietly stopped stressing the
// layer it exists for. They are warnings, not failures.
func intentWarnings(rep *report, w workload, sv *serveResult) {
	share := func(class string) float64 { return rep.Layers["core."+class+"_share"].Value }
	need := func(class string, min float64) {
		if s := share(class); s < min {
			rep.warnf("intent: core.%s_share = %.3f on %s, want >= %.2f", class, s, w.Name, min)
		}
	}
	switch w.Name {
	case "lstm8", "serve8":
		need("bout", 0.75)
	case "ems8":
		// BP bout hours are mostly EMS work too, so the hour classes cannot
		// show this workload's intent; the cut's Result wall split can.
		l := func(name string) float64 { return rep.Layers[name].Value }
		ems := l("core.ems_wall_s")
		if f := ems / (ems + l("core.fc_train_wall_s") + l("core.fc_test_wall_s") + l("core.unattributed_s")); f < 0.75 {
			rep.warnf("intent: EMS is %.3f of the one-day cut's wall on ems8, want >= 0.75", f)
		}
	case "fed24":
		need("round", 0.5)
	case "der24":
		if gap, ok := rep.LayerExtra["core.der_twin_gap_frac"]; ok && gap.Value < 0.5 {
			rep.warnf("intent: DER twin gap = %.3f of cut wall on der24, want >= 0.5", gap.Value)
		}
	}
	if !w.openLoop() {
		return
	}
	if v := rep.LayerExtra["serve.gen_late_p50_ms"].Value; v >= 2 {
		rep.warnf("intent: serve.gen_late_p50_ms = %.2f, want < 2 (the generator is not keeping up)", v)
	}
	// The backlog must drain between steps: the last quarter of the window
	// (serve8: 5 s) may not run later than 1.5× the first.
	q := sv.window / 4
	first, last := median(sv.latenessMS(0, q)), median(sv.latenessMS(3*q, 4*q))
	if last > 1.5*first && last >= 2 {
		rep.warnf("intent: median generator lateness grew from %.2f ms (first quarter) to %.2f ms (last quarter): backlog is building", first, last)
	}
}

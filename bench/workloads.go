package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/fednet"
	"repro/internal/forecast"
	"repro/internal/scenario"
	"repro/internal/wire"
)

//go:embed scenarios/der24.json
var der24JSON []byte

// Pinned harness constants. The host this benchmark was sized on has two
// CPUs; every run pins the scheduler to that width so a number taken on a
// wider host still means the same thing.
const (
	pinnedProcs    = 2
	stepIntervalMS = 500 // daemon pace during the open-loop window
	openLoopRate   = 100 // open loop: requests per second, one connection
	// A closed loop sends closedLoopBlocks blocks of closedLoopRate × -seconds
	// requests (3 × 1000 at 20 s); read_p50_ms / read_p99_ms are the median
	// over blocks of each block's quantile, so one GC pause or host hiccup
	// inside the ~2 s of reads cannot move them.
	closedLoopRate   = 50
	closedLoopBlocks = 3
)

// workload is one fleet and the way the benchmark drives it. A batch
// workload builds the fleet, steps every simulated hour back-to-back,
// finishes the run, and then reads the finished fleet through the serve
// API in a closed loop. The serve workload (WarmHours > 0) steps only its
// warm-up back-to-back, then reads in an open loop while the daemon steps
// on its own pace, checkpoints, resumes, and finishes the run.
type workload struct {
	Name string
	Why  string
	// Config is fully explicit: nothing is inherited from
	// core.DefaultConfig, so a later change there cannot move a workload.
	Config core.Config
	// WarmHours, when positive, makes this the serve workload: that many
	// hours are stepped back-to-back (and give the throughput, step-latency
	// and allocation metrics) before the open-loop window opens.
	WarmHours int
}

// openLoop reports whether the workload reads while the daemon steps.
func (w workload) openLoop() bool { return w.WarmHours > 0 }

// baseConfig sets every core.Config field by hand. Values match what the
// pfdrl CLI ran by default when the benchmark was defined.
func baseConfig(seed int64) core.Config {
	return core.Config{
		Method:             core.MethodPFDRL,
		Homes:              8,
		Days:               5,
		DevicesPerHome:     3,
		Seed:               seed,
		Alpha:              6,
		BetaHours:          12,
		GammaHours:         12,
		ForecastKind:       forecast.KindLSTM,
		ForecastWindow:     24,
		ForecastHidden:     12,
		TrainEveryHours:    4,
		TrainLookbackHours: 48,
		TrainBoutEpochs:    1,
		DQNHidden:          []int{24, 24, 24, 24, 24, 24, 24, 24},
		LookAhead:          8,
		LookBack:           8,
		TimeFeatures:       true,
		LearnEveryMinutes:  10,
		DQNBatch:           16,
		DQNLearnRate:       0.001,
		EpsilonDecayDays:   2,
		SensorDelayMinutes: 15,
		DropProb:           0,
		FaultPlan:          fednet.FaultPlan{},
		Retry:              fednet.RetryPolicy{},
		Comms:              wire.Options{Level: wire.Delta, TopKFrac: 0, KahanFold: false},
		RawTraces:          false,
		DisableFleetBatch:  false,
		Topology:           core.TopologySpec{Kind: core.TopoAllToAll},
		EMSTopology:        core.TopologySpec{},
		Scenario:           nil,
	}
}

// workloads returns the five workloads of record at the given seed.
func workloads(seed int64) ([]workload, error) {
	der, err := scenario.Parse(der24JSON)
	if err != nil {
		return nil, fmt.Errorf("bench: scenarios/der24.json: %w", err)
	}

	lstm8 := baseConfig(seed)

	ems8 := baseConfig(seed)
	ems8.Days = 8
	ems8.ForecastKind = forecast.KindBP
	ems8.LearnEveryMinutes = 1

	der24 := baseConfig(seed)
	der24.Homes = 24
	der24.ForecastKind = forecast.KindBP
	der24.Scenario = der

	fed24 := baseConfig(seed)
	fed24.Homes = 24
	fed24.ForecastKind = forecast.KindBP
	fed24.BetaHours, fed24.GammaHours = 1, 1

	serve8 := baseConfig(seed)
	serve8.Days = 4

	return []workload{
		{
			Name:   "lstm8",
			Why:    "8 homes x 5 days, LSTM forecaster, beta=gamma=12h: what pfdrl runs by default; LSTM training bouts are ~90% of step wall, so forecast/nn/tensor gains show here and EMS, federation and DER gains do not",
			Config: lstm8,
		},
		{
			Name:   "ems8",
			Why:    "8 homes x 8 days, BP forecaster, per-minute DQN learning: EMS act/learn is ~90% of step wall (dqn, energy.Env, core.runEMSHour), so a dqn/energy gain must show here and not on lstm8",
			Config: ems8,
		},
		{
			Name:   "der24",
			Why:    "24 homes x 5 days with battery, PV and EV in every home plus price spikes: the serial DER dispatch is most of the step wall; the only workload where an energy-DER, scenario or pricing change can show",
			Config: der24,
		},
		{
			Name:   "fed24",
			Why:    "24 homes x 5 days, beta=gamma=1h: hourly all-to-all rounds on both planes dominate the step wall and put ~19 MB/home-day on the wire; wire, fed and fednet changes are judged here",
			Config: fed24,
		},
		{
			Name:      "serve8",
			Why:       "lstm8's fleet warmed 48h, 2000 open-loop reads at 100 req/s while the daemon steps, then checkpoints and resumes: readers wait out whole steps behind serve's mutex; read-path changes are judged here",
			Config:    serve8,
			WarmHours: 48,
		},
	}, nil
}

// findWorkload returns the named workload at the given seed.
func findWorkload(name string, seed int64) (workload, error) {
	ws, err := workloads(seed)
	if err != nil {
		return workload{}, err
	}
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// smokeCut shrinks a workload to 2 homes × 1 day (the serve workload warms
// 12 hours); the test suite runs every workload at this size.
func smokeCut(w workload) workload {
	w.Config = cutDays(w.Config, 1)
	w.Config.Homes = 2
	if w.openLoop() {
		w.WarmHours = 12
	}
	return w
}

// configHash identifies a fully expanded workload configuration, seed
// included, so two result files can be shown to have run the same thing.
func configHash(cfg core.Config) (string, error) {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("bench: encoding config: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8]), nil
}

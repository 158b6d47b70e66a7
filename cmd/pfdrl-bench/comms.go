package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"repro/internal/benchmeta"
	"repro/internal/fed"
	"repro/internal/fednet"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// commsCell is one (agents, codec) measurement of the comms-plane sweep:
// repeated decentralized federation rounds over a clean all-to-all fabric,
// with per-round byte accounting from RoundReport and codec-level timing
// from bench-side timers (the wire package keeps byte counters only).
type commsCell struct {
	Agents int    `json:"agents"`
	Codec  string `json:"codec"`
	Rounds int    `json:"rounds"`
	// ParamFloats is P, the per-agent federated parameter count.
	ParamFloats int `json:"param_floats"`
	// KeyframeBytes is the first round's wire bill (every sender's first
	// broadcast of a kind is a dense keyframe, so round 1 never compresses);
	// BytesPerRound / DenseBytesPerRound / CompressionRatio are steady-state
	// means over rounds 2..Rounds.
	KeyframeBytes      int64   `json:"keyframe_bytes"`
	BytesPerRound      float64 `json:"bytes_per_round"`
	DenseBytesPerRound float64 `json:"dense_bytes_per_round"`
	CompressionRatio   float64 `json:"compression_ratio"`
	// EncodeNs / DecodeNs are per-payload codec costs measured in a
	// separate micro-loop (encode one agent's drifting parameters;
	// validate + fold the payload into a staged sum).
	EncodeNsPerPayload float64 `json:"encode_ns_per_payload"`
	DecodeNsPerPayload float64 `json:"decode_ns_per_payload"`
	// RoundWallNs is the mean wall time of one full round (broadcast,
	// drain, aggregate, join), steady-state rounds only.
	RoundWallNs float64 `json:"round_wall_ns"`
	// AggScratchFloats is a closed-form figure, not a measurement: P for
	// the compressed tiers (one staged O(P) sum per aggregating agent) and
	// N·P for dense (the legacy path materializes all N parameter sets
	// before averaging). It leaves out the N·P decoded floats per plane
	// that the compressed path's shared per-round decode holds.
	AggScratchFloats int64 `json:"agg_scratch_floats_per_agent"`
}

// commsReport is the schema of BENCH_comms.json.
type commsReport struct {
	Meta    benchmeta.Meta `json:"meta"`
	Seed    int64          `json:"seed"`
	Rounds  int            `json:"rounds"`
	Results []commsCell    `json:"results"`
}

// commsTier is one codec configuration of the sweep. A nil exchange factory
// marks the legacy PFP1 dense path (no wire.Exchange attached).
type commsTier struct {
	name string
	opts *wire.Options
}

func commsTiers() []commsTier {
	return []commsTier{
		{name: "pfp1-dense", opts: nil},
		{name: "wire-dense", opts: &wire.Options{Level: wire.Dense}},
		{name: "wire-delta", opts: &wire.Options{Level: wire.Delta}},
		{name: "wire-topk", opts: &wire.Options{Level: wire.TopK, TopKFrac: 0.05}},
	}
}

// commsFleet builds n identically-initialized MLPs (the simulator starts
// every home from one shared initialization, so federated averages begin
// aligned) plus per-agent drift sources that stand in for local training
// between rounds.
func commsFleet(n int, seed int64) ([]*nn.Sequential, []*rand.Rand) {
	models := make([]*nn.Sequential, n)
	drift := make([]*rand.Rand, n)
	for i := range models {
		models[i] = nn.NewMLP(rand.New(rand.NewSource(seed)), 16, 64, 64, 8)
		drift[i] = rand.New(rand.NewSource(seed + 1000 + int64(i)))
	}
	return models, drift
}

// driftParams applies SGD-sized relative movement (~1e-4 per round) to every
// parameter — the regime the delta codec actually sees between federation
// rounds, where an update touches the low mantissa bits of each weight rather
// than replacing it. Exact zeros (untrained biases) stay zero and collapse
// into the codec's zero-run tokens.
func driftParams(params []*tensor.Matrix, rng *rand.Rand) {
	for _, p := range params {
		for j := range p.Data {
			p.Data[j] *= 1 + rng.NormFloat64()*1e-4
		}
	}
}

func paramFloats(params []*tensor.Matrix) int {
	n := 0
	for _, p := range params {
		n += len(p.Data)
	}
	return n
}

// measureCommsCell runs `rounds` decentralized rounds for one (agents, tier)
// cell and returns its measurements. Round 1 is the keyframe round and is
// reported separately; steady-state figures average rounds 2..rounds.
func measureCommsCell(agents, rounds int, seed int64, tier commsTier) (commsCell, error) {
	models, drift := commsFleet(agents, seed)
	net := fednet.New(agents, fednet.Config{Topology: fednet.AllToAll, Seed: seed})
	ws := &fed.RoundWorkspace{}
	if tier.opts != nil {
		ws.Comms = wire.NewExchange(*tier.opts)
	}

	P := paramFloats(models[0].Params())
	cell := commsCell{
		Agents:      agents,
		Codec:       tier.name,
		Rounds:      rounds,
		ParamFloats: P,
		// Set by formula (see the field's comment), not measured.
		AggScratchFloats: int64(P),
	}
	if tier.opts == nil {
		cell.AggScratchFloats = int64(agents * P)
	}

	var steady fed.CommsTotals
	var steadyWall time.Duration
	for r := 1; r <= rounds; r++ {
		for i, m := range models {
			driftParams(m.Params(), drift[i])
		}
		start := time.Now()
		rep, err := fed.BeginDecentralizedRound(net, models, "bench", -1, ws).Join()
		wall := time.Since(start)
		if err != nil {
			return cell, fmt.Errorf("agents=%d codec=%s round %d: %w", agents, tier.name, r, err)
		}
		if rep.Degraded() {
			return cell, fmt.Errorf("agents=%d codec=%s round %d degraded on a clean fabric", agents, tier.name, r)
		}
		if r == 1 {
			cell.KeyframeBytes = rep.BytesSent
			continue
		}
		steady.Absorb(rep)
		steadyWall += wall
	}
	if steady.Rounds > 0 {
		cell.BytesPerRound = float64(steady.BytesSent) / float64(steady.Rounds)
		cell.DenseBytesPerRound = float64(steady.DenseBytes) / float64(steady.Rounds)
		cell.CompressionRatio = steady.CompressionRatio()
		cell.RoundWallNs = float64(steadyWall.Nanoseconds()) / float64(steady.Rounds)
	}

	encNs, decNs, err := measureCodecNs(tier, seed)
	if err != nil {
		return cell, err
	}
	cell.EncodeNsPerPayload = encNs
	cell.DecodeNsPerPayload = decNs
	return cell, nil
}

// measureCodecNs times one sender's encode and one receiver's validate+fold
// over a sequence of drifting parameter versions — the wire package counts
// bytes, not nanoseconds, so the bench brings its own timers. The PFP1 tier
// times the dense marshal/unmarshal pair instead.
func measureCodecNs(tier commsTier, seed int64) (encNs, decNs float64, err error) {
	const iters = 64
	models, drift := commsFleet(1, seed+7777)
	params := models[0].Params()
	staged := nn.CloneParams(params)

	if tier.opts == nil {
		var buf []byte
		scratch := nn.CloneParams(params)
		var encTot, decTot time.Duration
		for it := 0; it < iters; it++ {
			driftParams(params, drift[0])
			t0 := time.Now()
			buf = fed.MarshalParamsInto(buf[:0], params)
			encTot += time.Since(t0)
			t0 = time.Now()
			if err := fed.UnmarshalParamsInto(scratch, params, buf); err != nil {
				return 0, 0, err
			}
			decTot += time.Since(t0)
		}
		return float64(encTot.Nanoseconds()) / iters, float64(decTot.Nanoseconds()) / iters, nil
	}

	x := wire.NewExchange(*tier.opts)
	var comp [][]float64
	if tier.opts.KahanFold {
		comp = make([][]float64, len(staged))
		for i, m := range staged {
			comp[i] = make([]float64, len(m.Data))
		}
	}
	var buf []byte
	var encTot, decTot time.Duration
	for it := 0; it < iters; it++ {
		driftParams(params, drift[0])
		t0 := time.Now()
		buf, err = x.EncodeInto(buf[:0], 0, "bench", params)
		encTot += time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		for _, m := range staged {
			m.Zero()
		}
		t0 = time.Now()
		if err := x.Validate(0, "bench", params, buf); err != nil {
			return 0, 0, err
		}
		if err := x.FoldInto(staged, comp, 0, "bench", buf, 1); err != nil {
			return 0, 0, err
		}
		decTot += time.Since(t0)
	}
	return float64(encTot.Nanoseconds()) / iters, float64(decTot.Nanoseconds()) / iters, nil
}

// runCommsSweep measures bytes/round, codec timing, and round wall time
// across fleet sizes × codec tiers, adds the closed-form aggregation
// scratch, and writes BENCH_comms.json.
func runCommsSweep(agentsList string, rounds int, seed int64, outPath string) error {
	agents, err := parseIntList(agentsList)
	if err != nil {
		return err
	}
	if rounds < 2 {
		return fmt.Errorf("comms-rounds must be ≥ 2 (round 1 is the keyframe), got %d", rounds)
	}

	rep := commsReport{
		Meta:   benchmeta.Collect("comms", 2),
		Seed:   seed,
		Rounds: rounds,
	}
	for _, n := range agents {
		if n < 2 {
			return fmt.Errorf("comms sweep needs ≥ 2 agents per cell, got %d", n)
		}
		for _, tier := range commsTiers() {
			cell, err := measureCommsCell(n, rounds, seed, tier)
			if err != nil {
				return err
			}
			rep.Results = append(rep.Results, cell)
			log.Printf("comms: agents=%-2d codec=%-10s  %8.0f B/round  ratio %.2fx  enc %6.0fns dec %6.0fns  scratch %d floats",
				n, tier.name, cell.BytesPerRound, cell.CompressionRatio,
				cell.EncodeNsPerPayload, cell.DecodeNsPerPayload, cell.AggScratchFloats)
		}
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", outPath)
	return nil
}

package fed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fednet"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// perReceiptAggregate is the reference compressed-plane aggregation: every
// receipt is validated on its own and folded from its own bytes
// (Exchange.Validate + Exchange.FoldInto), and with the defense on it is
// decoded on its own for screening. The shared-decode path must reproduce
// its staged means and reports bit for bit.
func perReceiptAggregate(p *PendingRound, msgs [][]fednet.Message, kind string, ws *RoundWorkspace) {
	x := ws.Comms
	screen := ws.Adv != nil && ws.Adv.DefenseEnabled()
	for idx, i := range p.agents {
		base := p.bases[idx]
		ownClean := paramsClean(ws.snaps[i])
		if !ownClean {
			p.rep.reject(i, i, kind, "NaN/Inf parameters", false)
		}
		var accepted []fednet.Message
		for _, msg := range msgs[i] {
			if msg.Kind != kind {
				continue
			}
			err := x.Validate(msg.From, kind, base, msg.Payload)
			var got []*tensor.Matrix
			if err == nil && screen {
				got = nn.CloneParams(base)
				err = x.DecodeInto(got, msg.From, kind, msg.Payload)
			}
			if err != nil {
				p.rep.reject(i, msg.From, msg.Kind, err.Error(), !errors.Is(err, wire.ErrDiverged))
				continue
			}
			if screen {
				if reason, bad := ws.Adv.Suspect(got, ws.snaps[i]); bad {
					p.rep.rejectByzantine(i, msg.From, msg.Kind, reason)
					continue
				}
			}
			accepted = append(accepted, msg)
		}
		total := len(accepted)
		if ownClean {
			total++
		}
		p.used[idx] = total
		if total == 0 {
			continue
		}
		inv := 1.0 / float64(total)
		staged := p.staged[idx]
		for _, m := range staged {
			m.Zero()
		}
		var comp [][]float64
		if x.Options().KahanFold {
			comp = make([][]float64, len(base))
			for k, m := range base {
				comp[k] = make([]float64, m.Size())
			}
		}
		if ownClean {
			wire.FoldLocal(staged, comp, ws.snaps[i], inv)
		}
		for _, msg := range accepted {
			if err := x.FoldInto(staged, comp, msg.From, kind, msg.Payload, inv); err != nil {
				p.err = err
				return
			}
		}
	}
}

// tamper wraps an aggregator so that receiver to gets its message from
// sender from as a fresh copy of the broadcast — with one body bit flipped
// when flip is set — before aggregation runs: the shape of the receipt
// fednet delivers when it corrupts one attempt.
func tamper(agg aggregator, to, from int, flip bool) aggregator {
	return func(p *PendingRound, msgs [][]fednet.Message, kind string, ws *RoundWorkspace) {
		for k, msg := range msgs[to] {
			if msg.From != from || msg.Kind != kind {
				continue
			}
			cp := append([]byte(nil), msg.Payload...)
			if flip {
				cp[len(cp)-1] ^= 0x10
			}
			msgs[to][k].Payload = cp
		}
		agg(p, msgs, kind, ws)
	}
}

// sharedTwin is a pair of identical fleets, one aggregating through the
// product path and one through perReceiptAggregate.
type sharedTwin struct {
	models [2][]*nn.Sequential
	nets   [2]*fednet.Network
	ws     [2]*RoundWorkspace
}

func newSharedTwin(n int, cfg fednet.Config, opts wire.Options, plan *AdversaryPlan) *sharedTwin {
	tw := &sharedTwin{}
	for s := range tw.models {
		tw.models[s] = alignedMLPs(n, 41)
		tw.nets[s] = fednet.New(n, cfg)
		tw.ws[s] = &RoundWorkspace{Comms: wire.NewExchange(opts)}
		if plan != nil {
			tw.ws[s].Adv = NewAdversary(*plan)
		}
	}
	return tw
}

// round runs one round on both fleets (the product through agg, which
// defaults to aggregateStreaming; the reference through ref, defaulting to
// perReceiptAggregate) and requires identical reports and bit-identical
// installed parameters.
func (tw *sharedTwin) round(t *testing.T, ctx string, agg, ref aggregator) RoundReport {
	t.Helper()
	if agg == nil {
		agg = (*PendingRound).aggregateStreaming
	}
	if ref == nil {
		ref = perReceiptAggregate
	}
	got, err := beginRound(tw.nets[0], tw.models[0], "m", -1, tw.ws[0], agg).Join()
	if err != nil {
		t.Fatalf("%s: shared path: %v", ctx, err)
	}
	want, err := beginRound(tw.nets[1], tw.models[1], "m", -1, tw.ws[1], ref).Join()
	if err != nil {
		t.Fatalf("%s: reference path: %v", ctx, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: report mismatch:\nper-receipt %+v\nshared      %+v", ctx, want, got)
	}
	requireBitEqual(t, tw.models[1], tw.models[0], ctx)
	return got
}

// drift moves both fleets by the same deterministic step, so the next
// round carries non-trivial deltas.
func (tw *sharedTwin) drift(rng *rand.Rand) {
	for i := range tw.models[0] {
		pa, pb := tw.models[0][i].Params(), tw.models[1][i].Params()
		for j := range pa {
			for k := range pa[j].Data {
				d := rng.NormFloat64() * 0.01
				pa[j].Data[k] += d
				pb[j].Data[k] += d
			}
		}
	}
}

// TestSharedDecodeMatchesPerReceipt is the twin suite for the shared
// per-round decode: across codec tiers, Kahan on and off, a corrupting
// fabric, and the adversary defense on and off, a fleet that decodes each
// broadcast once per round must install the same bits and produce the same
// RoundReport (every Reject and its reason, every counter) as a fleet that
// validates and folds every receipt on its own. The last round poisons one
// agent with NaN so diverged-payload rejects are compared too.
func TestSharedDecodeMatchesPerReceipt(t *testing.T) {
	const rounds = 4
	levels := []wire.Options{
		{Level: wire.Delta},
		{Level: wire.Dense},
		{Level: wire.TopK, TopKFrac: 0.2},
	}
	for _, n := range []int{3, 8} {
		for _, lv := range levels {
			for _, kahan := range []bool{false, true} {
				for _, corrupt := range []float64{0, 0.3} {
					for _, defense := range []bool{false, true} {
						opts := lv
						opts.KahanFold = kahan
						name := fmt.Sprintf("n%d/%s/kahan=%v/corrupt=%v/defense=%v", n, lv.Level, kahan, corrupt, defense)
						t.Run(name, func(t *testing.T) {
							plan := AdversaryPlan{Seed: 5, Attackers: []Attacker{{Agent: 1, Attack: AttackSignFlip}}}
							if defense {
								plan.Defense = Defense{NormRatio: 4, CosineGate: true}
							}
							cfg := fednet.Config{Seed: 17, Faults: fednet.FaultPlan{CorruptProb: corrupt}}
							tw := newSharedTwin(n, cfg, opts, &plan)
							rng := rand.New(rand.NewSource(3))
							rejected := 0
							for r := 0; r < rounds; r++ {
								if r == rounds-1 {
									tw.models[0][n-1].Params()[0].Data[0] = math.NaN()
									tw.models[1][n-1].Params()[0].Data[0] = math.NaN()
								}
								rep := tw.round(t, fmt.Sprintf("round %d", r), nil, nil)
								rejected += rep.CorruptRejected
								tw.drift(rng)
							}
							shared := tw.ws[0].Comms.Stats().PayloadsDecoded
							perReceipt := tw.ws[1].Comms.Stats().PayloadsDecoded
							if want := uint64(rounds * n * (n - 1)); perReceipt != want {
								t.Fatalf("reference fleet validated %d payloads, want %d", perReceipt, want)
							}
							// One validation per broadcast, plus one per
							// corrupted copy (each of which was rejected).
							if limit := uint64(rounds*n + rejected); shared > limit {
								t.Fatalf("shared fleet validated %d payloads, want ≤ %d", shared, limit)
							}
							if corrupt > 0 && rejected == 0 {
								t.Fatal("corrupting fabric rejected nothing; the case exercises no corrupted copy")
							}
						})
					}
				}
			}
		}
	}
}

// TestSharedDecodeCorruptedCopy pins that a corrupted copy is judged on
// its own: the receiver it reached rejects it, and every other receiver
// still folds the shared broadcast. The copy reaches agent 1, the first
// receiver to see sender 0's payload, so the copy is also the first
// receipt of that sender the round meets. An intact copy that does not
// alias the broadcast is accepted through the per-receipt path.
func TestSharedDecodeCorruptedCopy(t *testing.T) {
	const n = 4
	// The screening defense, with no attacker, makes the intact copy take
	// the per-receipt decode that feeds Adversary.Suspect.
	screening := &AdversaryPlan{Defense: Defense{NormRatio: 4, CosineGate: true}}
	for _, tc := range []struct {
		flip bool
		plan *AdversaryPlan
	}{{true, nil}, {false, nil}, {true, screening}, {false, screening}} {
		flip := tc.flip
		t.Run(fmt.Sprintf("flip=%v/defense=%v", flip, tc.plan != nil), func(t *testing.T) {
			tw := newSharedTwin(n, fednet.Config{}, wire.Options{Level: wire.Delta}, tc.plan)
			rng := rand.New(rand.NewSource(8))
			for r := 0; r < 3; r++ {
				agg := tamper((*PendingRound).aggregateStreaming, 1, 0, flip)
				ref := tamper(perReceiptAggregate, 1, 0, flip)
				rep := tw.round(t, fmt.Sprintf("round %d", r), agg, ref)
				if !flip {
					if rep.CorruptRejected != 0 || rep.MinSets != n {
						t.Fatalf("round %d: intact copy not accepted: %+v", r, rep)
					}
					tw.drift(rng)
					continue
				}
				if rep.CorruptRejected != 1 || len(rep.Rejects) != 1 {
					t.Fatalf("round %d: want exactly one corrupt reject, have %+v", r, rep)
				}
				if rj := rep.Rejects[0]; rj.Agent != 1 || rj.From != 0 {
					t.Fatalf("round %d: reject %v, want agent 1 from 0", r, rj)
				}
				// Agent 1 folds n−1 sets, everyone else all n: the shared
				// broadcast was not poisoned by the copy.
				if rep.MinSets != n-1 || rep.MaxSets != n {
					t.Fatalf("round %d: sets [%d,%d], want [%d,%d]", r, rep.MinSets, rep.MaxSets, n-1, n)
				}
				tw.drift(rng)
			}
		})
	}
}

// TestSharedDecodeResetsEachRound runs consecutive rounds on one workspace
// with the dense codec, whose payloads keep their length from round to
// round, so each sender's marshal buffer comes back at the same address and
// size with new bytes. A decode cache that outlived its round would fold
// the previous round's parameters; the reference fleet pins that it does
// not.
func TestSharedDecodeResetsEachRound(t *testing.T) {
	const n = 3
	tw := newSharedTwin(n, fednet.Config{}, wire.Options{Level: wire.Dense}, nil)
	rng := rand.New(rand.NewSource(12))
	var prev []byte
	for r := 0; r < 3; r++ {
		tw.round(t, fmt.Sprintf("round %d", r), nil, nil)
		if b := tw.ws[0].marshal[0]; prev != nil && (len(b) != len(prev) || &b[0] != &prev[0]) {
			t.Fatalf("round %d: dense marshal buffer moved; the case no longer reuses it", r)
		}
		prev = tw.ws[0].marshal[0]
		tw.drift(rng)
	}
}

package fed

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fednet"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// This file implements overlapped federation rounds: the transport half of a
// decentralized round (snapshot, marshal, broadcast, inbox drain) runs
// synchronously on the caller — every fednet interaction stays on the
// simulation's deterministic clock and RNG — while the aggregation half
// (unmarshal, validation, averaging) runs in one background goroutine that
// writes into staged double buffers. Join blocks until aggregation finishes
// and installs the staged means into the live base layers in agent order.
//
// Because the aggregate is computed from immutable snapshots and drained
// messages, the round's result is bit-identical to the synchronous
// DecentralizedRound no matter what compute the caller overlaps with it.
// The one semantic shift is *when* the mean lands in the live model: at
// Join instead of inside the round call. Callers therefore only overlap a
// round with work that does not read or train the very models in the round
// (e.g. forecaster rounds over EMS compute), joining before the next use.

// RoundWorkspace holds the buffers a repeated federation round reuses:
// per-agent marshal buffers, parameter snapshots, staged aggregation
// targets, each sender's decoded broadcast, and a pool of decode sets for
// received payloads. A workspace serves one round at a time —
// BeginDecentralizedRound panics if the previous round it carries has not
// been joined, because in-flight message payloads alias the marshal
// buffers.
type RoundWorkspace struct {
	// Comms, when non-nil, switches the workspace's rounds onto the
	// compressed wire plane: snapshots encode through the Exchange
	// (delta/top-k coding against each sender's last broadcast) instead
	// of the dense PFP1 marshal, and aggregation decodes each sender's
	// broadcast once per round — one decoded set per sender, N·P floats
	// held in the workspace — and folds it into every receiver's staged
	// sum. Only a receipt that is not the shared broadcast (fednet's
	// corrupted copy) is validated and folded from its own bytes. All
	// rounds sharing one Exchange must share one workspace (or otherwise
	// serialize), because the Exchange's reference store advances with
	// every encode. Nil keeps the legacy dense path, bit-for-bit.
	Comms *wire.Exchange

	// Tel, when non-nil, reports every round this workspace carries —
	// duration, fold time, join wait, and the report counters — to its
	// telemetry sink. Nil is free.
	Tel *RoundTelemetry

	// Adv, when non-nil, drives the scenario adversary: attackers listed
	// in its plan broadcast deterministically poisoned payloads, and when
	// its defense is enabled every aggregating agent screens received
	// payloads (norm-ratio / cosine gates) before they join the mean,
	// rejected ones landing in RoundReport.ByzantineRejected. Nil — the
	// only state for every pre-scenario config — leaves both the
	// transport and aggregation halves byte-identical to before.
	Adv *Adversary

	marshal [][]byte
	snaps   [][]*tensor.Matrix
	staged  [][]*tensor.Matrix

	decode     [][]*tensor.Matrix
	decodeUsed int

	// shared caches each sender's broadcast, validated and decoded once
	// per compressed round; indexed by sender like marshal, and allocated
	// by the first round that aggregates.
	shared []sharedBroadcast

	// foldComp is the Kahan compensation scratch for the streaming fold
	// (one O(P) buffer — aggregation is sequential per agent, so it is
	// reused across the fleet). Allocated only when Comms opts in.
	foldComp [][]float64

	inFlight bool
}

// ensureAgents sizes the per-agent buffer tables for n agents.
func (ws *RoundWorkspace) ensureAgents(n int) {
	if len(ws.marshal) < n {
		ws.marshal = append(ws.marshal, make([][]byte, n-len(ws.marshal))...)
		ws.snaps = append(ws.snaps, make([][]*tensor.Matrix, n-len(ws.snaps))...)
		ws.staged = append(ws.staged, make([][]*tensor.Matrix, n-len(ws.staged))...)
	}
}

// nextDecodeSet hands out the next pooled decode set, shaped by the decoder
// itself (DecodeInto resizes in place). The pool is positional: reset
// decodeUsed to recycle every set once its consumers are done.
func (ws *RoundWorkspace) nextDecodeSet(n int) []*tensor.Matrix {
	if ws.decodeUsed == len(ws.decode) {
		ws.decode = append(ws.decode, nil)
	}
	set := ws.decode[ws.decodeUsed]
	for len(set) < n {
		set = append(set, &tensor.Matrix{})
	}
	set = set[:n]
	ws.decode[ws.decodeUsed] = set
	ws.decodeUsed++
	return set
}

// ensureComp shapes the Kahan compensation scratch like the given set and
// zeroes it for a fresh aggregation.
func (ws *RoundWorkspace) ensureComp(like []*tensor.Matrix) [][]float64 {
	if cap(ws.foldComp) < len(like) {
		ws.foldComp = make([][]float64, len(like))
	}
	ws.foldComp = ws.foldComp[:len(like)]
	for i, m := range like {
		if cap(ws.foldComp[i]) < m.Size() {
			ws.foldComp[i] = make([]float64, m.Size())
		}
		ws.foldComp[i] = ws.foldComp[i][:m.Size()]
		clear(ws.foldComp[i])
	}
	return ws.foldComp
}

// ensureParamsLike shapes dst as a reusable deep buffer matching the shapes
// of like, reusing backing storage whenever capacity allows.
func ensureParamsLike(dst, like []*tensor.Matrix) []*tensor.Matrix {
	if cap(dst) < len(like) {
		dst = make([]*tensor.Matrix, len(like))
	} else {
		dst = dst[:len(like)]
	}
	for i, p := range like {
		dst[i] = tensor.EnsureShape(dst[i], p.Rows, p.Cols)
	}
	return dst
}

// PendingRound is a decentralized round whose transport half has completed
// and whose aggregation half may still be running. Join must be called
// exactly once per round before the workspace (or the round's models) are
// used again; it is cheap when aggregation already finished.
type PendingRound struct {
	rep  RoundReport
	err  error
	done chan struct{}
	ws   *RoundWorkspace

	agents []int              // live agent indices, ascending
	bases  [][]*tensor.Matrix // live base-layer params, parallel to agents
	staged [][]*tensor.Matrix // staged aggregates, parallel to agents
	used   []int              // sets averaged per agent, parallel to agents
	joined bool

	tel   *RoundTelemetry
	begin time.Time
}

// BeginDecentralizedRound starts one DFL exchange (see DecentralizedRound
// for the protocol and degradation semantics) and returns without waiting
// for aggregation. All network traffic — snapshot broadcast and inbox
// drain — happens before it returns, so fednet's byte/time accounting and
// fault RNG advance exactly as in the synchronous round. Averaging then
// proceeds in the background against staged buffers; the caller may overlap
// any compute that does not touch the round's models, and must call Join on
// the result before reading or training them again.
//
// ws may be nil for a one-shot round (fresh buffers); passing a workspace
// across rounds removes the per-round marshal and snapshot allocations.
func BeginDecentralizedRound(net *fednet.Network, models []*nn.Sequential, kind string, alpha int, ws *RoundWorkspace) *PendingRound {
	return beginRound(net, models, kind, alpha, ws, (*PendingRound).aggregateStreaming)
}

// aggregator is a compressed-plane aggregation half: it reads the drained
// inboxes and fills p's staged means, set counts and report.
type aggregator func(p *PendingRound, msgs [][]fednet.Message, kind string, ws *RoundWorkspace)

// beginRound is BeginDecentralizedRound with the compressed-plane
// aggregation half supplied by the caller, so a test can run a reference
// aggregation behind the very same transport half.
func beginRound(net *fednet.Network, models []*nn.Sequential, kind string, alpha int, ws *RoundWorkspace, aggregate aggregator) *PendingRound {
	p := &PendingRound{done: make(chan struct{})}
	if ws != nil && ws.Tel != nil {
		p.tel = ws.Tel
		p.begin = time.Now()
	}
	if net.N() != len(models) {
		p.err = fmt.Errorf("fed: %d models for %d network agents", len(models), net.N())
		close(p.done)
		return p
	}
	n := len(models)
	if n == 1 {
		p.rep = RoundReport{Agents: 1, MinSets: 1, MaxSets: 1}
		close(p.done)
		return p
	}
	if ws == nil {
		ws = &RoundWorkspace{}
	} else if ws.inFlight {
		panic("fed: BeginDecentralizedRound: workspace round still pending (Join it first)")
	}
	ws.ensureAgents(n)
	advRound := -1
	if ws.Adv != nil {
		advRound = ws.Adv.BeginRound(kind)
	}
	topo := net.Config().Topology
	p.rep.PartialExchange = topo == fednet.Ring || topo == fednet.Sampled
	live := make([]bool, n)
	for i := range models {
		if net.AgentDown(i) {
			p.rep.Crashed++
			continue
		}
		live[i] = true
		p.rep.Agents++
	}
	// Snapshot & broadcast. Snapshots isolate in-flight payloads from any
	// continued local mutation; they live in the workspace so steady-state
	// rounds allocate nothing here. The fednet.Stats delta around this
	// transport phase is the round's byte bill.
	st0 := net.Stats()
	for i, m := range models {
		if !live[i] {
			continue
		}
		base := baseParams(m, alpha)
		ws.snaps[i] = ensureParamsLike(ws.snaps[i], base)
		nn.CopyParams(ws.snaps[i], base)
		// A Byzantine agent broadcasts a poisoned set while ws.snaps[i]
		// stays true — its own aggregation folds honest parameters. The
		// adversary buffer is marshaled before the next PayloadFor call,
		// so one shared buffer serves the whole loop.
		payload := ws.snaps[i]
		if ws.Adv != nil {
			payload = ws.Adv.PayloadFor(i, kind, advRound, ws.snaps[i])
		}
		if ws.Comms != nil {
			var err error
			ws.marshal[i], err = ws.Comms.EncodeInto(ws.marshal[i][:0], i, kind, payload)
			if err != nil {
				p.err = fmt.Errorf("fed: encoding agent %d params: %w", i, err)
				close(p.done)
				return p
			}
		} else {
			ws.marshal[i] = MarshalParamsInto(ws.marshal[i], payload)
		}
		if err := net.Broadcast(i, kind, ws.marshal[i]); err != nil {
			p.err = err
			close(p.done)
			return p
		}
	}
	// Drain every inbox now: Collect is the last fednet interaction, so the
	// network is back to a quiescent state when Begin returns.
	msgs := make([][]fednet.Message, n)
	for i := range models {
		if !live[i] {
			continue
		}
		msgs[i] = net.Collect(i)
		for _, msg := range msgs[i] {
			if msg.Kind == kind {
				p.rep.BytesReceived += int64(len(msg.Payload))
			}
		}
		base := baseParams(models[i], alpha)
		p.agents = append(p.agents, i)
		p.bases = append(p.bases, base)
		ws.staged[i] = ensureParamsLike(ws.staged[i], base)
		p.staged = append(p.staged, ws.staged[i])
	}
	st := net.Stats()
	p.rep.BytesSent = st.BytesSent - st0.BytesSent
	p.rep.Messages = st.MessagesSent - st0.MessagesSent
	if ws.Comms != nil && len(p.bases) > 0 {
		// Dense baseline: the same attempts carrying PFP1 payloads. The
		// attempt count is unchanged by payload size (drop/corruption RNG
		// draws are per attempt), so this is exact, not an estimate.
		p.rep.DenseBytes = int64(st.MessagesSent-st0.MessagesSent) * int64(wire.DenseSize(p.bases[0]))
	} else {
		p.rep.DenseBytes = p.rep.BytesSent
	}
	p.used = make([]int, len(p.agents))
	p.ws = ws
	ws.inFlight = true
	// Aggregate in the background: one goroutine, agents in ascending order,
	// so rejects and set counts land in the report in the same order the
	// synchronous round produces.
	go func() {
		var foldStart time.Time
		if p.tel != nil {
			foldStart = time.Now()
		}
		if ws.Comms != nil {
			aggregate(p, msgs, kind, ws)
		} else {
			for idx, i := range p.agents {
				ws.decodeUsed = 0 // agent idx's sets are consumed before idx+1 decodes
				sets := p.rep.collectFrom(msgs[i], i, p.bases[idx], kind, ws.snaps[i], ws)
				p.used[idx] = nn.AverageParamSets(p.staged[idx], sets...)
			}
		}
		if p.tel != nil {
			p.tel.observeFold(time.Since(foldStart))
		}
		close(p.done)
	}()
	return p
}

// aggregateStreaming is the compressed-plane aggregation half. Every
// sender's broadcast is validated and decoded once per round and shared by
// all its receivers (sharedReceipt), and each receiver folds what it
// accepts straight into its staged sum. Only a receipt that does not alias
// the broadcast — fednet's fresh corrupted copy — is validated on its own
// and folded from its bytes with Exchange.FoldInto. With the adversary
// defense on, each receipt is screened (Adversary.Suspect) against the
// receiver's own snapshot before it joins the mean.
//
// Two passes keep the mean exact: pass 1 validates and screens receipts and
// fixes the divisor, pass 2 folds the agent's own snapshot first and then
// the survivors in arrival order. wire.FoldLocal on a decoded set and
// FoldInto on its payload apply the same foldOne per element, and that is
// nn.AverageParamSets' element order too, so the plain fold is bit-identical
// to the dense path and to a per-receipt fold. The opt-in Kahan fold trades
// that equality with the dense path for compensated summation.
func (p *PendingRound) aggregateStreaming(msgs [][]fednet.Message, kind string, ws *RoundWorkspace) {
	x := ws.Comms
	opts := x.Options()
	// A top-k fold adds the reference and the sparse correction as two
	// products; folding their decoded sum would round differently, so top-k
	// receipts always fold from the payload.
	foldDecoded := opts.Level != wire.TopK
	screen := ws.Adv != nil && ws.Adv.DefenseEnabled()
	ws.resetShared()
	type receipt struct {
		msg fednet.Message
		set []*tensor.Matrix // decoded values to fold, or nil to fold the payload
	}
	var accepted []receipt
	for idx, i := range p.agents {
		base := p.bases[idx]
		ws.decodeUsed = 0 // agent idx's screened copies are consumed before idx+1 decodes
		ownClean := paramsClean(ws.snaps[i])
		if !ownClean {
			p.rep.reject(i, i, kind, "NaN/Inf parameters", false)
		}
		accepted = accepted[:0]
		for _, msg := range msgs[i] {
			if msg.Kind != kind {
				continue
			}
			r := receipt{msg: msg}
			var got []*tensor.Matrix
			var err error
			if c := ws.sharedReceipt(x, msg, kind, base); c != nil {
				got, err = c.set, c.err
				if foldDecoded {
					r.set = got
				}
			} else {
				err = x.Validate(msg.From, kind, base, msg.Payload)
				if err == nil && screen {
					got = ensureParamsLike(ws.nextDecodeSet(len(base)), base)
					err = x.DecodeInto(got, msg.From, kind, msg.Payload)
				}
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
			accepted = append(accepted, r)
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
		if opts.KahanFold {
			comp = ws.ensureComp(base)
		}
		if ownClean {
			wire.FoldLocal(staged, comp, ws.snaps[i], inv)
		}
		for _, r := range accepted {
			if r.set != nil {
				wire.FoldLocal(staged, comp, r.set, inv)
				continue
			}
			if err := x.FoldInto(staged, comp, r.msg.From, kind, r.msg.Payload, inv); err != nil {
				// Validate guaranteed this fold would succeed; failing here
				// is a codec bug, not a fabric fault — fail the round loudly
				// rather than install a half-folded aggregate.
				p.err = fmt.Errorf("fed: folding payload from agent %d: %w", r.msg.From, err)
				return
			}
		}
	}
}

// sharedBroadcast is one sender's broadcast as a round's receivers see it:
// the Validate verdict (or the DecodeInto error) and the decoded values,
// each computed once.
type sharedBroadcast struct {
	seen bool
	err  error
	set  []*tensor.Matrix
}

// resetShared sizes the cache like the marshal buffers and forgets the
// previous round's decodes. The marshal buffers are reused from round to
// round, so an entry that survived would match this round's payload
// pointer with last round's values.
func (ws *RoundWorkspace) resetShared() {
	if n := len(ws.marshal); len(ws.shared) < n {
		ws.shared = append(ws.shared, make([]sharedBroadcast, n-len(ws.shared))...)
	}
	for i := range ws.shared {
		ws.shared[i].seen = false
	}
}

// sharedReceipt returns msg's sender's broadcast, validated and decoded on
// first sight, when msg.Payload is that sender's marshal buffer — the one
// slice fednet hands every recipient. Any other receipt returns nil and
// must be handled on its own. The round's models share one architecture,
// so the first receiver's base shapes the decode for all of them.
func (ws *RoundWorkspace) sharedReceipt(x *wire.Exchange, msg fednet.Message, kind string, base []*tensor.Matrix) *sharedBroadcast {
	b := ws.marshal[msg.From]
	if len(msg.Payload) == 0 || len(b) != len(msg.Payload) || &b[0] != &msg.Payload[0] {
		return nil
	}
	c := &ws.shared[msg.From]
	if !c.seen {
		c.seen = true
		c.set = ensureParamsLike(c.set, base)
		if c.err = x.Validate(msg.From, kind, base, msg.Payload); c.err == nil {
			c.err = x.DecodeInto(c.set, msg.From, kind, msg.Payload)
		}
	}
	return c
}

// Join waits for the round's aggregation to finish, installs each staged
// mean into its agent's live base layers (agents whose aggregate ended up
// empty keep their parameters, mirroring the synchronous round), and
// returns the completed report. Calling Join again returns the same result
// without reinstalling.
func (p *PendingRound) Join() (RoundReport, error) {
	var waitStart time.Time
	if p.tel != nil {
		waitStart = time.Now()
	}
	<-p.done
	if p.joined {
		return p.rep, p.err
	}
	p.joined = true
	if p.tel != nil {
		p.tel.observeJoin(p.begin, time.Since(waitStart), p.rep)
	}
	if p.err == nil {
		for idx, base := range p.bases {
			if p.used[idx] > 0 {
				nn.CopyParams(base, p.staged[idx])
			}
			p.rep.countSets(p.used[idx])
		}
	}
	if p.ws != nil {
		p.ws.inFlight = false
	}
	return p.rep, p.err
}

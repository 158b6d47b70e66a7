package fed

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fednet"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// TestAdversaryPlanValidate covers the plan validation edge cases,
// mirroring fednet's TestFaultPlanValidate.
func TestAdversaryPlanValidate(t *testing.T) {
	bad := []AdversaryPlan{
		{Attackers: []Attacker{{Agent: 5, Attack: AttackSignFlip}}},
		{Attackers: []Attacker{{Agent: -1, Attack: AttackSignFlip}}},
		{Attackers: []Attacker{{Agent: 0, Attack: "gradient-cook"}}},
		{Attackers: []Attacker{{Agent: 0, Attack: AttackNoise}}}, // Scale unset
		{Attackers: []Attacker{{Agent: 0, Attack: AttackNoise, Scale: math.NaN()}}},
		{Attackers: []Attacker{{Agent: 0, Attack: AttackNoise, Scale: math.Inf(1)}}},
		{Attackers: []Attacker{{Agent: 0, Attack: AttackStale}}}, // Lag unset
		{Attackers: []Attacker{{Agent: 0, Attack: AttackSignFlip, StartRound: -1}}},
		{Attackers: []Attacker{{Agent: 0, Attack: AttackSignFlip, StartRound: 5, EndRound: 5}}},
		{Attackers: []Attacker{
			{Agent: 1, Attack: AttackSignFlip},
			{Agent: 1, Attack: AttackStale, Lag: 2},
		}},
		{Defense: Defense{NormRatio: 0.5}},
		{Defense: Defense{NormRatio: 1}},
		{Defense: Defense{CosineGate: true, CosineMin: 1.5}},
		{Defense: Defense{CosineGate: true, CosineMin: -2}},
	}
	for i, plan := range bad {
		if err := plan.Validate(3); err == nil {
			t.Fatalf("bad plan %d accepted", i)
		}
	}
	good := AdversaryPlan{
		Seed: 42,
		Attackers: []Attacker{
			{Agent: 0, Attack: AttackSignFlip, StartRound: 1, EndRound: 3},
			{Agent: 2, Attack: AttackNoise, Scale: 8},
		},
		Defense: Defense{NormRatio: 4, CosineGate: true},
	}
	if err := good.Validate(3); err != nil {
		t.Fatal(err)
	}
	if got := good.MaxAgent(); got != 2 {
		t.Fatalf("MaxAgent = %d, want 2", got)
	}
	if (AdversaryPlan{}).MaxAgent() != -1 {
		t.Fatal("empty plan MaxAgent should be -1")
	}
	if !(AdversaryPlan{}).Empty() || good.Empty() {
		t.Fatal("Empty misclassifies")
	}
	if (AdversaryPlan{Defense: Defense{CosineGate: true}}).Empty() {
		t.Fatal("defense-only plan should not be Empty")
	}
}

// TestDefenseCatches pins the attack-vs-gate prediction matrix that
// DetectionsPerRound (and the core byzantine golden test) relies on.
func TestDefenseCatches(t *testing.T) {
	both := Defense{NormRatio: 4, CosineGate: true}
	cases := []struct {
		name string
		d    Defense
		a    Attacker
		want bool
	}{
		{"sign-flip vs cosine", both, Attacker{Attack: AttackSignFlip}, true},
		{"sign-flip vs norm-only", Defense{NormRatio: 4}, Attacker{Attack: AttackSignFlip}, false},
		{"big noise vs norm", both, Attacker{Attack: AttackNoise, Scale: 8}, true},
		{"small noise passes", both, Attacker{Attack: AttackNoise, Scale: 0.1}, false},
		{"stale passes", both, Attacker{Attack: AttackStale, Lag: 1}, false},
		{"no defense", Defense{}, Attacker{Attack: AttackSignFlip}, false},
	}
	for _, tc := range cases {
		if got := tc.d.Catches(tc.a); got != tc.want {
			t.Errorf("%s: Catches = %v, want %v", tc.name, got, tc.want)
		}
	}
	plan := AdversaryPlan{
		Attackers: []Attacker{
			{Agent: 0, Attack: AttackSignFlip, StartRound: 2},
			{Agent: 1, Attack: AttackNoise, Scale: 8},
			{Agent: 2, Attack: AttackStale, Lag: 1},
		},
		Defense: both,
	}
	if got := plan.DetectionsPerRound(4, 0); got != 3 {
		t.Fatalf("round 0 detections = %d, want 3 (noise only)", got)
	}
	if got := plan.DetectionsPerRound(4, 2); got != 6 {
		t.Fatalf("round 2 detections = %d, want 6 (sign-flip active too)", got)
	}
}

// TestSuspectGates exercises the screening math directly.
func TestSuspectGates(t *testing.T) {
	tpl := []*tensor.Matrix{tensor.New(2, 2)}
	copy(tpl[0].Data, []float64{1, -2, 3, 0.5})
	mk := func(scale float64) []*tensor.Matrix {
		p := []*tensor.Matrix{tensor.New(2, 2)}
		for i, v := range tpl[0].Data {
			p[0].Data[i] = v * scale
		}
		return p
	}
	adv := NewAdversary(AdversaryPlan{Defense: Defense{NormRatio: 4, CosineGate: true}})
	if reason, bad := adv.Suspect(mk(1), tpl); bad {
		t.Fatalf("identical payload rejected: %s", reason)
	}
	if reason, bad := adv.Suspect(mk(1.5), tpl); bad {
		t.Fatalf("mildly scaled payload rejected: %s", reason)
	}
	if _, bad := adv.Suspect(mk(-1), tpl); !bad {
		t.Fatal("sign-flipped payload passed the cosine gate")
	}
	if _, bad := adv.Suspect(mk(9), tpl); !bad {
		t.Fatal("9x-scaled payload passed the norm gate")
	}
	if _, bad := adv.Suspect(mk(1.0/9), tpl); !bad {
		t.Fatal("shrunk payload passed the symmetric norm gate")
	}
	zero := []*tensor.Matrix{tensor.New(2, 2)}
	if _, bad := adv.Suspect(zero, tpl); bad {
		t.Fatal("zero-norm payload should pass (gates undefined)")
	}
	if _, bad := adv.Suspect(mk(-1), zero); bad {
		t.Fatal("zero-norm template should pass (gates undefined)")
	}
	off := NewAdversary(AdversaryPlan{Attackers: []Attacker{{Agent: 0, Attack: AttackSignFlip}}})
	if _, bad := off.Suspect(mk(-1), tpl); bad {
		t.Fatal("disabled defense rejected a payload")
	}
}

// TestAdversaryPayloads covers the perturbation engine: determinism,
// the active window, the sign-flip map, the noise amplitude, and the
// stale ring's fill/replay behavior.
func TestAdversaryPayloads(t *testing.T) {
	snapAt := func(v float64) []*tensor.Matrix {
		s := []*tensor.Matrix{tensor.New(1, 4)}
		for i := range s[0].Data {
			s[0].Data[i] = v + float64(i)
		}
		return s
	}
	plan := AdversaryPlan{
		Seed: 7,
		Attackers: []Attacker{
			{Agent: 0, Attack: AttackSignFlip, StartRound: 1, EndRound: 2},
			{Agent: 1, Attack: AttackNoise, Scale: 2},
			{Agent: 2, Attack: AttackStale, Lag: 1},
		},
	}
	adv := NewAdversary(plan)
	snap := snapAt(1)

	// Honest agent: payload is the snapshot itself, no copy.
	if got := adv.PayloadFor(3, "k", 0, snap); &got[0].Data[0] != &snap[0].Data[0] {
		t.Fatal("honest agent's payload should alias the snapshot")
	}
	// Windowed sign-flip: inactive at round 0 and 2, negated at round 1.
	if got := adv.PayloadFor(0, "k", 0, snap); &got[0].Data[0] != &snap[0].Data[0] {
		t.Fatal("attacker outside window should broadcast its snapshot")
	}
	got := adv.PayloadFor(0, "k", 1, snap)
	for i, v := range snap[0].Data {
		if got[0].Data[i] != -v {
			t.Fatalf("sign-flip element %d: %g, want %g", i, got[0].Data[i], -v)
		}
	}
	if got := adv.PayloadFor(0, "k", 2, snap); &got[0].Data[0] != &snap[0].Data[0] {
		t.Fatal("attacker past EndRound should broadcast its snapshot")
	}

	// Noise: deterministic across independent runtimes, varies by round,
	// and the snapshot itself is never touched.
	n1 := nn.CloneParams(adv.PayloadFor(1, "k", 3, snap))
	n2 := NewAdversary(plan).PayloadFor(1, "k", 3, snap)
	for i := range n1[0].Data {
		if n1[0].Data[i] != n2[0].Data[i] {
			t.Fatal("noise stream not deterministic across runtimes")
		}
	}
	n3 := adv.PayloadFor(1, "k", 4, snap)
	same := true
	for i := range n1[0].Data {
		if n1[0].Data[i] != n3[0].Data[i] {
			same = false
		}
	}
	if same {
		t.Fatal("noise identical across rounds")
	}
	for i, v := range snap[0].Data {
		if v != 1+float64(i) {
			t.Fatal("PayloadFor mutated the snapshot")
		}
	}

	// Stale: ring fills on round 0 (payload = snapshot), replays the
	// previous round's parameters from round 1 on.
	s0, s1, s2 := snapAt(10), snapAt(20), snapAt(30)
	if got := adv.PayloadFor(2, "k", 0, s0); got[0].Data[0] != 10 {
		t.Fatalf("stale round 0 should pass through, got %g", got[0].Data[0])
	}
	if got := adv.PayloadFor(2, "k", 1, s1); got[0].Data[0] != 10 {
		t.Fatalf("stale round 1 should replay round 0, got %g", got[0].Data[0])
	}
	if got := adv.PayloadFor(2, "k", 2, s2); got[0].Data[0] != 20 {
		t.Fatalf("stale round 2 should replay round 1, got %g", got[0].Data[0])
	}
	// Kinds keep independent rings.
	if got := adv.PayloadFor(2, "other", 0, s2); got[0].Data[0] != 30 {
		t.Fatal("fresh kind should still be filling its ring")
	}
}

// alignedMLPs builds a fleet the way real runs do — one shared init
// (core's InitSeed) plus small per-agent drift — so honest payloads sit
// at cosine ≈ 1 / norm ratio ≈ 1 against any receiver's reference and
// only the scripted attacks trip the gates.
func alignedMLPs(n int, seed int64) []*nn.Sequential {
	out := make([]*nn.Sequential, n)
	for i := range out {
		out[i] = nn.NewMLP(rand.New(rand.NewSource(seed)), 4, 6, 6, 2)
		drift := rand.New(rand.NewSource(seed + 100 + int64(i)))
		for _, p := range out[i].Params() {
			for k := range p.Data {
				p.Data[k] *= 1 + 0.02*drift.NormFloat64()
			}
		}
	}
	return out
}

// advRound runs one all-to-all round over a clean fabric with the given
// adversary attached and returns the report.
func advRound(t *testing.T, models []*nn.Sequential, adv *Adversary, x *wire.Exchange) RoundReport {
	t.Helper()
	net := fednet.New(len(models), fednet.Config{})
	ws := &RoundWorkspace{Adv: adv, Comms: x}
	rep, err := BeginDecentralizedRound(net, models, "w", -1, ws).Join()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestAdversaryRoundDetection runs poisoned rounds end to end on both
// wire planes and checks the per-round ByzantineRejected count lands
// exactly as DetectionsPerRound predicts, with honest aggregation
// continuing over the surviving payloads.
func TestAdversaryRoundDetection(t *testing.T) {
	const n = 4
	plan := AdversaryPlan{
		Seed: 11,
		Attackers: []Attacker{
			{Agent: 1, Attack: AttackSignFlip},
			{Agent: 2, Attack: AttackNoise, Scale: 8},
		},
		Defense: Defense{NormRatio: 4, CosineGate: true},
	}
	if err := plan.Validate(n); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		comms func() *wire.Exchange
	}{
		{"dense", func() *wire.Exchange { return nil }},
		{"compressed", func() *wire.Exchange { return wire.NewExchange(wire.Options{Level: wire.Delta}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			models := alignedMLPs(n, 33)
			// Expected survivor mean per receiver: own snapshot + honest
			// peers' payloads (agents 1 and 2 rejected everywhere).
			snaps := make([][]*tensor.Matrix, n)
			for i, m := range models {
				snaps[i] = nn.CloneParams(m.Params())
			}
			want := make([][]*tensor.Matrix, n)
			for i := range models {
				want[i] = nn.CloneParams(snaps[i])
				sets := [][]*tensor.Matrix{snaps[i]}
				for j := range models {
					if j != i && j != 1 && j != 2 {
						sets = append(sets, snaps[j])
					}
				}
				nn.AverageParamSets(want[i], sets...)
			}
			rep := advRound(t, models, NewAdversary(plan), tc.comms())
			pred := plan.DetectionsPerRound(n, 0)
			if pred != 2*(n-1) {
				t.Fatalf("prediction sanity: %d, want %d", pred, 2*(n-1))
			}
			if rep.ByzantineRejected != pred {
				t.Fatalf("ByzantineRejected = %d, want %d", rep.ByzantineRejected, pred)
			}
			if !rep.Degraded() {
				t.Fatal("poisoned round should read as degraded")
			}
			// Honest receivers fold own + 1 honest peer; the attackers
			// additionally fold both honest peers (their own snapshots
			// are true, and they only reject each other).
			if rep.MinSets != 2 || rep.MaxSets != 3 {
				t.Fatalf("sets = [%d,%d], want [2,3]", rep.MinSets, rep.MaxSets)
			}
			for i, m := range models {
				for j, p := range m.Params() {
					for k := range p.Data {
						if math.Float64bits(p.Data[k]) != math.Float64bits(want[i][j].Data[k]) {
							t.Fatalf("agent %d param %d: aggregate differs from survivor mean", i, j)
						}
					}
				}
			}
		})
	}
}

// TestAdversaryNilIsInert pins the gating invariant behind the golden
// suite: a workspace with no adversary attached produces a bit-identical
// round to one with a plan that neither attacks nor defends.
func TestAdversaryNilIsInert(t *testing.T) {
	a, b := mlps(3, 5), mlps(3, 5)
	netA, netB := fednet.New(3, fednet.Config{}), fednet.New(3, fednet.Config{})
	repA, err := BeginDecentralizedRound(netA, a, "w", -1, &RoundWorkspace{}).Join()
	if err != nil {
		t.Fatal(err)
	}
	repB, err := BeginDecentralizedRound(netB, b, "w", -1, &RoundWorkspace{Adv: NewAdversary(AdversaryPlan{})}).Join()
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, a, b, "empty-plan adversary")
	if repA.ByzantineRejected != 0 || repB.ByzantineRejected != 0 {
		t.Fatal("clean rounds recorded byzantine rejects")
	}
}

// TestAdversaryClusterUpload checks the cluster round screens poisoned
// member uploads at the aggregator.
func TestAdversaryClusterUpload(t *testing.T) {
	const n = 4
	models := alignedMLPs(n, 77)
	net := fednet.New(n, fednet.Config{Topology: fednet.Cluster, ClusterSize: 2})
	plan := AdversaryPlan{
		Attackers: []Attacker{{Agent: 1, Attack: AttackSignFlip}},
		Defense:   Defense{CosineGate: true},
	}
	if err := plan.Validate(n); err != nil {
		t.Fatal(err)
	}
	rep, err := ClusterRound(net, models, "w", -1, &RoundWorkspace{Adv: NewAdversary(plan)})
	if err != nil {
		t.Fatal(err)
	}
	// Agent 1 is a member (aggregators lead each cluster); only its own
	// aggregator sees — and rejects — the poisoned upload.
	if rep.ByzantineRejected != 1 {
		t.Fatalf("ByzantineRejected = %d, want 1", rep.ByzantineRejected)
	}
	if !rep.Degraded() {
		t.Fatal("poisoned cluster round should read as degraded")
	}
}

// TestAdversaryStaleSlipsThrough confirms the taxonomy's blind spot is
// real: a stale-replay attacker defeats both gates, so its (old, honest)
// parameters poison the mean silently.
func TestAdversaryStaleSlipsThrough(t *testing.T) {
	const n = 3
	models := alignedMLPs(n, 9)
	adv := NewAdversary(AdversaryPlan{
		Attackers: []Attacker{{Agent: 0, Attack: AttackStale, Lag: 1}},
		Defense:   Defense{NormRatio: 4, CosineGate: true},
	})
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 3; round++ {
		rep := advRound(t, models, adv, nil)
		if rep.ByzantineRejected != 0 {
			t.Fatalf("round %d: stale replay was detected (%d rejects)", round, rep.ByzantineRejected)
		}
		if rep.MinSets != n {
			t.Fatalf("round %d: MinSets = %d, want %d (nothing rejected)", round, rep.MinSets, n)
		}
		// Drift the fleet so successive snapshots differ and the replay
		// is genuinely stale.
		for _, m := range models {
			for _, p := range m.Params() {
				for i := range p.Data {
					p.Data[i] += 0.01 * rng.NormFloat64()
				}
			}
		}
	}
	if got := adv.RoundsRun("w"); got != 3 {
		t.Fatalf("RoundsRun = %d, want 3", got)
	}
}

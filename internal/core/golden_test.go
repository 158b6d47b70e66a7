package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/forecast"
)

// goldenConfig is the fixed-seed scenario the equivalence suite pins:
// 2 homes x 2 devices x 2 days, LR forecasters, a small DQN.
func goldenConfig(m Method) Config {
	cfg := DefaultConfig(m)
	cfg.Homes = 2
	cfg.Days = 2
	cfg.DevicesPerHome = 2
	cfg.ForecastKind = forecast.KindLR
	cfg.ForecastWindow = 16
	cfg.DQNHidden = []int{12, 12}
	cfg.Alpha = 1
	cfg.LookAhead, cfg.LookBack = 4, 4
	cfg.LearnEveryMinutes = 20
	cfg.DQNBatch = 8
	cfg.TrainEveryHours = 8
	cfg.BetaHours = 12
	cfg.GammaHours = 12
	return cfg
}

// TestGoldenEquivalence pins the bit-exact Result series of the golden
// scenario. The expected bits were captured from the pre-refactor
// (allocate-per-call) numeric stack; the buffer-reuse refactor must
// reproduce them exactly — same kernels, same accumulation order, same RNG
// call sequence. Any drift here means a kernel or call-order change altered
// the simulation, not just its performance.
//
// The values are IEEE-754 bit patterns captured on amd64, where gc never
// fuses a*b + c into one instruction. They are amd64 bits: on arm64 gc
// contracts such expressions into FMADDD/FMSUBD (134 sites in repro/...
// in a GOARCH=arm64 build of cmd/pfdrl), which rounds once instead of
// twice, so this test is not expected to hold there.
func TestGoldenEquivalence(t *testing.T) {
	golden := map[Method]map[string][]uint64{
		MethodLocal: {
			"DailySavedKWhPerHome": {0x3fb5b2937079cf4c, 0x3fbfa466d7c375cc},
			"DailySavedFrac":       {0x3fd25d7cc199b6cd, 0x3fddafce465b96e9},
			"DailyMeanReward":      {0x4016955555555555, 0x401be00000000000},
			"PerHomeSavedKWhFinal": {0x3fc2888628ab5244, 0x3fba37c15e304711},
			"PerHomeRewardFinal":   {0x4022ee38e38e38e4, 0x4011e38e38e38e39},
			"ForecastAccuracy":     {0x3fcf3c9e21272064},
		},
		MethodPFDRL: {
			"DailySavedKWhPerHome": {0x3fb5d5cea4a23ea7, 0x3fbc96b2bb5a7a1a},
			"DailySavedFrac":       {0x3fd27b4ec36adbdc, 0x3fdad2691ee4de33},
			"DailyMeanReward":      {0x4016c00000000000, 0x401ad8e38e38e38e},
			"PerHomeSavedKWhFinal": {0x3fc0ae07f60a5710, 0x3fb7d1558aa04615},
			"PerHomeRewardFinal":   {0x4021dc71c71c71c7, 0x4011f8e38e38e38e},
			"ForecastAccuracy":     {0x3fcf2714fd25795c},
		},
	}
	for _, m := range []Method{MethodLocal, MethodPFDRL} {
		sys, err := NewSystem(goldenConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		series := map[string][]float64{
			"DailySavedKWhPerHome": res.DailySavedKWhPerHome,
			"DailySavedFrac":       res.DailySavedFrac,
			"DailyMeanReward":      res.DailyMeanReward,
			"PerHomeSavedKWhFinal": res.PerHomeSavedKWhFinal,
			"PerHomeRewardFinal":   res.PerHomeRewardFinal,
			"ForecastAccuracy":     {res.ForecastAccuracy},
		}
		for name, want := range golden[m] {
			got := series[name]
			if len(got) != len(want) {
				t.Errorf("%s %s: %d values, want %d", m, name, len(got), len(want))
				continue
			}
			for i, w := range want {
				if b := math.Float64bits(got[i]); b != w {
					t.Errorf("%s %s[%d] = 0x%016x (%v), want 0x%016x (%v)",
						m, name, i, b, got[i], w, math.Float64frombits(w))
				}
			}
		}
	}
}

// TestStateIntoTimeFeatures is the regression test for the old stateAt
// aliasing hazard: time features were appended to the slice Env.StateAt
// returned, so spare capacity could have let the append scribble into
// Env-owned backing. stateInto now writes into a caller buffer; this test
// drives it with a capacity-padded buffer (the shape that made append
// dangerous) and checks both content and Env isolation.
func TestStateIntoTimeFeatures(t *testing.T) {
	sys, err := NewSystem(goldenConfig(MethodLocal))
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.homes[0].src.Traces[0]
	env, err := energy.NewEnv(tr.Device, tr.Day(0), tr.Day(0))
	if err != nil {
		t.Fatal(err)
	}
	env.LookAhead, env.LookBack = sys.cfg.LookAhead, sys.cfg.LookBack
	envDim := env.StateDim()
	want := envDim + 2 // goldenConfig keeps TimeFeatures on

	// Capacity-padded destination: len correct, spare capacity beyond it.
	backing := make([]float64, want+8)
	for i := range backing {
		backing[i] = -99
	}
	dst := backing[:want]
	got := sys.stateInto(dst, env, 30)

	envState := env.StateAt(30)
	for i := 0; i < envDim; i++ {
		if got[i] != envState[i] {
			t.Fatalf("stateInto[%d] = %v, want env state %v", i, got[i], envState[i])
		}
	}
	angle := 2 * math.Pi * float64(30) / float64(1440)
	if got[envDim] != math.Sin(angle) || got[envDim+1] != math.Cos(angle) {
		t.Fatal("stateInto time features wrong")
	}
	// The padding beyond len must be untouched: nothing appended past dst.
	for i := want; i < len(backing); i++ {
		if backing[i] != -99 {
			t.Fatalf("stateInto wrote past dst length at index %d", i)
		}
	}
	// And a second build into a different buffer must leave the first alone.
	other := make([]float64, want)
	sys.stateInto(other, env, 31)
	if got[0] != envState[0] {
		t.Fatal("second stateInto mutated the first observation buffer")
	}

	// Wrong-length destinations fail loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("stateInto with short dst did not panic")
		}
	}()
	sys.stateInto(make([]float64, want-1), env, 0)
}

// TestRunErrorsOnZeroStepDay pins the daySteps guard: a system whose homes
// have no device environments must fail with a configuration diagnosis, not
// emit NaN into DailyMeanReward.
func TestRunErrorsOnZeroStepDay(t *testing.T) {
	sys, err := NewSystem(goldenConfig(MethodLocal))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range sys.homes {
		h.src.Traces = nil // simulate a corpus that yielded no EMS work
	}
	_, err = sys.Run()
	if err == nil {
		t.Fatal("Run with zero EMS steps should error")
	}
	if !strings.Contains(err.Error(), "no EMS steps") {
		t.Fatalf("unhelpful zero-step error: %v", err)
	}
}

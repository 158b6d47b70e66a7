package main

import (
	"math"
	"sort"
)

// metricDef names one metric. Bound is the share of the baseline's median
// by which the metric may worsen before -compare calls it a regression;
// for the end-to-end metrics of record BENCHMARK.json carries the bound and
// this table's value is unused.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	// Exact marks a value that repeats bit for bit at the same seed when a
	// change leaves arithmetic alone; -compare also reports equality.
	Exact bool
}

// endToEnd lists the metrics every workload reports on every run; it must
// equal BENCHMARK.json's end_to_end (the test suite checks).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "home_days_per_s", Unit: "home-days/s", Better: "higher"},
	{Name: "step_hour_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "alloc_mb_per_home_day", Unit: "MB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "wire_mb_per_home_day", Unit: "MB", Better: "lower", Exact: true},
	{Name: "saved_frac_final", Unit: "fraction", Better: "higher", Exact: true},
	{Name: "forecast_accuracy", Unit: "fraction", Better: "higher", Exact: true},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower"},
}

// workloadOnly lists end-to-end metrics that only some workloads can
// produce. The driver contract wants every listed metric from every
// workload, so these stay out of BENCHMARK.json; the harness still prints
// them and -compare still judges them, with the bounds given here.
var workloadOnly = []metricDef{
	{Name: "checkpoint_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "resume_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "der_cost_cents_per_home_day", Unit: "cents", Better: "lower", Bound: 0.01, Exact: true},
}

// perLayer lists the traced run's metrics, prefix = module under internal/.
// It must equal BENCHMARK.json's per_layer.
var perLayer = []metricDef{
	{Name: "core.plain_share", Unit: "fraction", Better: "lower"},
	{Name: "core.dayprep_share", Unit: "fraction", Better: "lower"},
	{Name: "core.bout_share", Unit: "fraction", Better: "lower"},
	{Name: "core.round_share", Unit: "fraction", Better: "lower"},
	{Name: "core.fc_train_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.fc_test_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.ems_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.unattributed_s", Unit: "s", Better: "lower"},
	{Name: "core.new_system_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_write_ms", Unit: "ms", Better: "lower"},
	{Name: "core.snapshot_mb", Unit: "MB", Better: "lower"},
	{Name: "core.resume_ms", Unit: "ms", Better: "lower"},
	{Name: "core.speedup_p2", Unit: "ratio", Better: "higher"},

	{Name: "forecast.train_bout_ms", Unit: "ms", Better: "lower"},
	{Name: "forecast.train_member_ms", Unit: "ms", Better: "lower"},
	{Name: "forecast.predict_day_ms", Unit: "ms", Better: "lower"},
	{Name: "forecast.predict_hour_us", Unit: "us", Better: "lower"},

	{Name: "nn.lstm_fwd_bwd_us", Unit: "us", Better: "lower"},
	{Name: "nn.mlp_fwd_bwd_us", Unit: "us", Better: "lower"},
	{Name: "tensor.matmul_gflops", Unit: "gflop/s", Better: "higher"},
	{Name: "tensor.dense_forward_ns", Unit: "ns", Better: "lower"},

	{Name: "dqn.select_actions_us", Unit: "us", Better: "lower"},
	{Name: "dqn.learn_us", Unit: "us", Better: "lower"},
	{Name: "dqn.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "dqn.greedy_us", Unit: "us", Better: "lower"},
	{Name: "energy.env_step_ns", Unit: "ns", Better: "lower"},
	{Name: "energy.state_into_ns", Unit: "ns", Better: "lower"},
	{Name: "energy.battery_step_ns", Unit: "ns", Better: "lower"},
	{Name: "energy.ev_step_ns", Unit: "ns", Better: "lower"},

	{Name: "wire.dense.encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.dense.fold_us", Unit: "us", Better: "lower"},
	{Name: "wire.dense.decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.dense.payload_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wire.delta.encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.delta.fold_us", Unit: "us", Better: "lower"},
	{Name: "wire.delta.decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.delta.payload_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wire.topk.encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.topk.fold_us", Unit: "us", Better: "lower"},
	{Name: "wire.topk.decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.topk.payload_bytes", Unit: "bytes", Better: "lower"},

	{Name: "fed.round_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.round_msgs", Unit: "count", Better: "lower"},
	{Name: "fed.round_bytes", Unit: "bytes", Better: "lower"},
	{Name: "fed.cluster_round_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.sampled_round_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.degraded_rounds", Unit: "count", Better: "lower"},
	{Name: "fednet.broadcast_us", Unit: "us", Better: "lower"},
	{Name: "fednet.sim_comm_s_per_day", Unit: "s", Better: "lower"},

	{Name: "pecan.generate_ms_per_home_day", Unit: "ms", Better: "lower"},
	{Name: "pecan.day_with_history_us", Unit: "us", Better: "lower"},
	{Name: "pecan.storage_bytes_per_point", Unit: "bytes", Better: "lower"},
	{Name: "store.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "store.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "store.bytes_per_point", Unit: "bytes", Better: "lower"},

	{Name: "sched.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "sched.speedup_p2", Unit: "ratio", Better: "higher"},

	{Name: "serve.status_us", Unit: "us", Better: "lower"},
	{Name: "serve.forecast_us", Unit: "us", Better: "lower"},
	{Name: "serve.plan_us", Unit: "us", Better: "lower"},
}

// layerOnly lists traced metrics only some workloads (or only the -all
// driver) can produce; like workloadOnly they are printed, not contracted.
var layerOnly = []metricDef{
	{Name: "core.hour_plain_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hour_dayprep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hour_bout_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hour_round_ms", Unit: "ms", Better: "lower"},
	{Name: "core.der_hour_ms", Unit: "ms", Better: "lower"},
	{Name: "core.der_twin_gap_frac", Unit: "fraction", Better: "higher"},
	{Name: "serve.stalled_frac", Unit: "fraction", Better: "lower"},
	{Name: "serve.hours_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.gen_late_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.checkpoint_post_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "fraction", Better: "lower"},
}

// needsTwoCPUs names the metrics a host with fewer than pinnedProcs CPUs
// cannot measure; they are reported as skipped there, never as a number.
var needsTwoCPUs = map[string]bool{"core.speedup_p2": true, "sched.speedup_p2": true}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a definition table so a misspelt or
// unlisted name fails loudly instead of producing a stray metric.
type metricSet map[string]value

func (m metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in its definition table")
}

// quantile returns the nearest-rank q-quantile of xs (0 < q ≤ 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

# Build/verify entry points. `make verify` is the tier-1 gate (build +
# tests); `make race` is the separate race-detector pass that CI runs as
# its own step — the federated fabric trains homes in parallel goroutines,
# so the race build is the test that actually exercises the locking.

GO ?= go

.PHONY: all build test race bench throughput bench-comms bench-topology bench-store bench-smoke telemetry-smoke serve-smoke scenario-smoke lint verify ci clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass. Kept separate from `test`: the instrumented binary
# runs several times slower, and the chaos/e2e suites are long enough that
# folding the two together would double CI latency for no extra signal.
race:
	$(GO) test -race ./...

# Hot-path benchmark run. -benchmem makes B/op and allocs/op part of the
# output; the `go test -json` stream is captured to BENCH_hotpath.json so
# regressions in the zero-allocation contract (DESIGN.md §8) diff cleanly
# across commits. The first line of the artifact is the benchmeta header
# (schema + toolchain + host + commit), keeping the stream valid JSONL.
bench: throughput
	$(GO) run ./cmd/pfdrl-bench -benchmeta hotpath > BENCH_hotpath.json
	$(GO) test -json -bench=. -benchmem -run '^$$' . >> BENCH_hotpath.json
	@sed -n 's/.*"Output":"\(Benchmark[^"]*\)\\n".*/\1/p' BENCH_hotpath.json
	@echo "wrote BENCH_hotpath.json"

# End-to-end homes × GOMAXPROCS scaling sweep (BENCH_throughput.json).
# Pass BASELINE=<old BENCH_throughput.json> to embed a before/after
# comparison in the artifact. The scaling gate fails the target when any
# ≥8-home GOMAXPROCS=4 cell's parallel efficiency (throughput vs the same
# fleet at P=1) drops below EFF_FLOOR — the recorded floor the adaptive
# scheduling grain must hold. Override with EFF_FLOOR=0 to disable.
EFF_FLOOR ?= 0.90
throughput:
	$(GO) run ./cmd/pfdrl-bench -throughput -out BENCH_throughput.json \
		-efficiency-floor $(EFF_FLOOR) \
		$(if $(BASELINE),-baseline $(BASELINE))

# Fleet-size × codec federation comms sweep (BENCH_comms.json): bytes per
# round, encode/decode ns, the closed-form aggregation scratch, and round
# wall time for the PFP1 baseline vs the PFW2 dense/delta/top-k tiers
# (DESIGN.md §10).
bench-comms:
	$(GO) run ./cmd/pfdrl-bench -comms -out BENCH_comms.json

# Fleet-size × federation-topology sweep (BENCH_topology.json): message
# and byte bills per round (measured vs closed-form) for all-to-all vs
# sampled gossip vs cluster aggregation up to thousands of homes, plus
# end-to-end 8-home throughput per topology (DESIGN.md §12). Override the
# cells with TOPO_HOMES=... (the ci run uses a reduced sweep).
bench-topology:
	$(GO) run ./cmd/pfdrl-bench -topology -out BENCH_topology.json \
		$(if $(TOPO_HOMES),-topo-homes $(TOPO_HOMES))

# Compressed trace-store sweep (BENCH_store.json): block-codec bytes/point
# and encode/decode throughput on quantized and full-precision corpora, plus
# the raw-vs-store resident-heap sweep up to STORE_XL homes (DESIGN.md §15).
# Hard gates inside the driver fail the target if the quantized corpus
# exceeds 2 bytes/point, decode drops below 100 MB/s, or the heap reduction
# at 1024 homes falls under 4×. Override cells with STORE_HOMES=... (the
# ci run uses a reduced sweep).
bench-store:
	$(GO) run ./cmd/pfdrl-bench -store -out BENCH_store.json \
		$(if $(STORE_HOMES),-store-homes $(STORE_HOMES)) \
		$(if $(STORE_XL),-store-xl $(STORE_XL))

# Benchmark-of-record smoke: the bench module's own tests run a small cut
# of every BENCHMARK.json workload (the serve8 daemon included) and
# check its outputs. The module is separate (bench/go.mod), so `go test
# ./...` at the root never reaches it.
bench-smoke:
	$(GO) test -C bench ./...

# Observability gate: boot a small run with the live telemetry server,
# scrape /metrics, /healthz, and /debug/trace, and assert the key series
# from every instrumented plane plus the JSONL journal. Build-tagged out of
# the normal test run because it shells out to `go run`.
telemetry-smoke:
	$(GO) test -tags telemetry_smoke -count=1 -v ./internal/telemetry/smoke

# Service-mode gate: interrupt a batch run to mint a resumable seed
# snapshot (exercising the SIGINT graceful-shutdown path end to end),
# warm-start the daemon from it on :0, hit every /v1 endpoint, retune a
# live knob, wait for a checkpoint rotation, SIGTERM, and resume the
# final checkpoint. Also pins the CLI's cross-flag diagnostics.
# Build-tagged out of the normal test run because it compiles and execs
# the binary.
serve-smoke:
	$(GO) test -tags serve_smoke -count=1 -v ./internal/serve/smoke

# Scenario gate: run every shipped scenario under scenarios/ through the
# real CLI for one simulated day. Catches drift between the scenario
# documents and the engine (a renamed field, a broken validation range)
# that the package tests can't see because they pin specific files.
scenario-smoke:
	@for f in scenarios/*.json; do \
		echo "== $$f"; \
		$(GO) run ./cmd/pfdrl -scenario $$f -homes 4 -days 1 || exit 1; \
	done

# gofmt drift fails the gate: `gofmt -l` lists every file it would rewrite.
lint:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

verify: build test lint

# Full CI gate: build + vet + tests, then the race-detector pass over the
# packages with real cross-goroutine traffic (scheduler pool, home-parallel
# simulation, overlapped federation rounds, sharded matmul and the
# fleet-batched nn/forecast kernels dispatched over it, the wire codec's
# shared reference store, the fednet fabrics the sampled/cluster
# topologies route through, and the telemetry instruments updated from all
# of them). The core and fed suites include the chaos FaultPlan twins
# (compressed vs dense under drops/corruption/partitions), so the race
# build exercises the compressed planes under fault injection. The serve
# daemon and the counting RNG it snapshots join the race list because the
# daemon's HTTP handlers read the view its background stepping loop
# republishes, by design. The store and pecan packages join it because
# every parallel plane (fleet batching, group prediction, cloud training)
# now decodes compressed blocks into per-trace scratch concurrently. A reduced topology sweep
# then regenerates BENCH_topology.json so message-count regressions
# against the closed forms fail the gate, a reduced store sweep
# regenerates BENCH_store.json so codec or memory regressions fail it
# too, and the serve smoke drives the full daemon lifecycle through the
# real binary. The energy and scenario packages join the race list
# because DER dispatch state is read by the parallel stats/telemetry
# planes, and the scenario smoke runs every shipped workload end to end.
# The bench smoke runs the benchmark of record's small cut last.
ci: verify
	$(GO) vet ./...
	$(GO) test -race ./internal/core ./internal/energy ./internal/fed ./internal/fednet ./internal/forecast ./internal/nn ./internal/pecan ./internal/rng ./internal/sched ./internal/scenario ./internal/serve ./internal/store ./internal/tensor ./internal/wire ./internal/telemetry
	$(MAKE) bench-topology TOPO_HOMES=64,256
	$(MAKE) bench-store STORE_HOMES=64,256 STORE_XL=0
	$(MAKE) serve-smoke
	$(MAKE) scenario-smoke
	$(MAKE) bench-smoke

clean:
	$(GO) clean ./...

# Mirrors .github/workflows/ci.yml so tier-1 verify is one command
# locally: `make ci`.

GO ?= go
# bash for pipefail in bench-json.
SHELL := /bin/bash

.PHONY: build examples-smoke test race bench bench-json bench-gate script-lint fmt vet fmt-check x11 x12 x13 x14 x15 fuzz-smoke serve-smoke perfbench-test perfbench-smoke ci

build:
	$(GO) build ./...
	$(GO) build ./examples/...

# Run every example from the repo root, where they find testdata/, and
# diff its stdout against testdata/goldens/examples/<name>.txt; a
# non-zero exit or any difference fails (examples/scenario exits
# non-zero when its literal and loaded runs trace differently).
examples-smoke:
	@set -o pipefail; for d in examples/*/; do \
		n=$$(basename "$$d"); \
		$(GO) run "./$$d" | diff -u "testdata/goldens/examples/$$n.txt" - \
			|| { echo "examples-smoke: $$d failed or its output differs from testdata/goldens/examples/$$n.txt" >&2; exit 1; }; \
	done

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

bench-json:
	set -o pipefail; $(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./... | tee bench.txt
	scripts/bench_stream_json.sh bench.txt BENCH_stream.json
	scripts/bench_engine_json.sh bench.txt BENCH_engine.json

# Perf-regression gate against the last committed bench/history
# baseline; fails on a >15% events/sec loss (GATE_TOLERANCE_PCT
# overrides). Only the engine throughput pair is gated on absolute
# events/sec: its sub-millisecond draws make best-of-5 a stable
# capacity estimate, where the multi-second scaling benchmarks stay
# correlated with whatever background load the runner happens to
# carry (the scaling axis is defended by the relative — and therefore
# noise-immune — TestDispatchCostSubLinear instead). A failed attempt
# re-measures up to twice: a transient load spike skews one
# measurement, not three independent ones.
bench-gate:
	@for i in 1 2 3; do \
		set -o pipefail; \
		if $(GO) test -bench 'BenchmarkEngineThroughput' -benchtime 100x -count 5 -benchmem -run '^$$' . | tee bench_gate.txt \
			&& REQUIRE_SCALING=0 REQUIRE_FASTFORWARD=0 REQUIRE_OPENARRIVALS=0 scripts/bench_engine_json.sh bench_gate.txt BENCH_gate.json \
			&& scripts/bench_gate.sh BENCH_gate.json; then \
			exit 0; \
		elif [ $$i -lt 3 ]; then \
			echo "bench-gate: attempt $$i failed; re-measuring (transient load?)" >&2; \
		fi; \
	done; exit 1

# Shell scripts must at least parse everywhere; shellcheck runs where
# installed (the CI image has it).
script-lint:
	bash -n scripts/*.sh
	@if command -v shellcheck > /dev/null; then \
		shellcheck scripts/*.sh; \
	else \
		echo "script-lint: shellcheck not installed, bash -n only" >&2; \
	fi

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The X11 differential invariant sweep: 60 fixed-seed fuzzed
# scenarios, each run under the online invariant oracle in every
# legal collection mode, retained vs streamed reports cross-checked.
# Fails (after shrinking a reproducer into testdata/shrunk/) on any
# violation.
x11:
	$(GO) run ./cmd/rtexp -exp x11 > /dev/null

# The X12 process-sharding differential: 24 checkpointable scenarios
# swept across 3 worker subprocesses (streamed accumulator states
# merged in the parent) vs the same scenarios run serially in-process;
# any report divergence fails.
x12:
	$(GO) run ./cmd/rtexp -exp x12 > /dev/null

# The X13 multiprocessor differential: 24 fixed-seed task sets run
# under both dispatch modes with the oracle armed; any invariant
# violation fails, and on every feasible-partition point the global
# success ratio must be at least the partitioned one.
x13:
	$(GO) run ./cmd/rtexp -exp x13 > /dev/null

# The X14 fast-forward differential: 48 fixed-seed fast-forward-
# eligible scenarios, each run full (oracle armed, retained) and
# fast-forwarded; any count/summary divergence or out-of-bound
# percentile fails, as does a sweep where no scenario engaged the
# jump.
x14:
	$(GO) run ./cmd/rtexp -exp x14 > /dev/null

# The X15 open-arrivals differential: 18 fixed-seed scenarios cycling
# the three arrival-source kinds (Poisson, MMPP, trace replay), each
# run with the oracle armed in both collection modes; any invariant
# violation or retain/stream divergence fails, as does a realized
# Poisson gap set breaking the KS exponentiality bound or a trace that
# does not re-encode byte-identically.
x15:
	$(GO) run ./cmd/rtexp -exp x15 > /dev/null

# End-to-end smoke of the serving stack: boot rtserved, prove the
# cache contract (miss/hit, byte-equality with `rtrun -scenario`),
# hold a pinned p99 SLO on a cached burst, and saturate a tiny
# instance to prove 429 shedding shows up in /metrics.
serve-smoke:
	scripts/serve_smoke.sh

# perfbench (the end-to-end benchmark) is its own Go module, importing
# this one through a replace directive, so `go test ./...` here never
# reaches it. Its vet and self-tests run separately: they call the
# library's public surface standalone, which a refactor can break.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# A 1-second run of each perfbench workload through its own entry
# point: every run checks its outputs (served reports and envelopes
# against direct sim runs, hit/miss counts, batch reports), so the
# last stdout line must report correct with no failed operation.
perfbench-smoke:
	@set -o pipefail; for w in serve-hot serve-cold batch-long; do \
		line=$$(bash perfbench/run.sh --workload $$w --seconds 1 | tail -n 1) || exit 1; \
		case "$$line" in \
		'{"correct":true,'*'"failed":0,'*) echo "perfbench-smoke: $$w correct" ;; \
		*) echo "perfbench-smoke: $$w: $$line" >&2; exit 1 ;; \
		esac; \
	done

# Short native-fuzz smoke over the scenario space, the log codec, the
# analysis of decoded logs, and the checkpoint split/resume
# differential.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzScenario -fuzztime 10s ./internal/verify/gen
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzAnalyze -fuzztime 10s ./internal/metrics
	$(GO) test -run '^$$' -fuzz FuzzCheckpoint -fuzztime 10s ./internal/verify/gen

ci: build examples-smoke vet fmt-check script-lint race perfbench-test perfbench-smoke bench-json bench-gate x11 x12 x13 x14 x15 fuzz-smoke serve-smoke

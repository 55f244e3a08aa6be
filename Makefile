# Mirrors .github/workflows/ci.yml so `make check` locally is the same bar
# as CI.

GO ?= go

.PHONY: all build vet fmt-check test race bench-check check cover lint fuzz-smoke bench bench-full bench-gate bench-baseline bench-load experiments profile serve api clean

# Seed-baseline total coverage; CI fails below this (see ci.yml).
COVER_FLOOR ?= 85.0

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench/ is a module of its own, so `go build ./...` at the root never
# compiles it: vet and test it explicitly, or a facade change could break
# the benchmark without any failure here.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

check: build vet fmt-check race bench-check

# Regenerate the exported-API golden (testdata/api/wexp.txt) after an
# intentional surface change; TestAPISurfaceGolden diffs against it.
api:
	UPDATE_API=1 $(GO) test -run TestAPISurfaceGolden .

cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total%"; \
	if [ "$$(awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { print (t+0 >= f+0) ? "ok" : "low" }')" != ok ]; then \
		echo "coverage $$total% fell below the floor $(COVER_FLOOR)%" >&2; exit 1; \
	fi

# Static analysis + known-vulnerability scan, pinned so local runs and CI
# agree on the toolchain (`go run pkg@version` fetches nothing when the
# module cache already holds the version). Findings are fixed, not
# suppressed — the tree stays staticcheck-clean.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Short fuzz runs of every fuzz target; same set as CI's fuzz-smoke job.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzRadioStep -fuzztime=30s ./internal/radio
	$(GO) test -run='^$$' -fuzz=FuzzRadioModels -fuzztime=30s ./internal/radio
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=15s ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzBuilder -fuzztime=15s ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzExpansionKernels -fuzztime=20s ./internal/expansion
	$(GO) test -run='^$$' -fuzz=FuzzRandomizedCertificate -fuzztime=20s ./internal/expansion
	$(GO) test -run='^$$' -fuzz=FuzzWALDecode -fuzztime=15s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzPlace -fuzztime=15s ./internal/router

# One iteration of every benchmark: keeps the bench harness from rotting
# and rewrites BENCH_expansion.json (the expansion-engine perf record).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Full benchmark sweep with real timings.
bench-full:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Benchmark-regression gate: stash the committed BENCH_*.json baselines,
# re-run the benchmarks (which rewrite them), and compare with
# cmd/benchgate. Fails on any ns/op regression beyond BENCH_GATE_TOL; a
# shell trap restores the baselines afterwards — also when the bench or
# gate step fails or is interrupted — so the tree never keeps silently
# rewritten baselines.
# CI passes a wider tolerance (runner-to-runner variance); to refresh the
# baselines intentionally, run `make bench-baseline` and commit.
BENCH_GATE_TOL ?= 0.25
BENCH_GATE_TIME ?= 100ms
BENCH_BASELINE_TIME ?= 300ms
BENCH_BASELINE_DIR := artifacts/bench-baseline

bench-gate:
	@mkdir -p $(BENCH_BASELINE_DIR)
	@cp BENCH_expansion.json BENCH_radio.json BENCH_service.json BENCH_ingest.json $(BENCH_BASELINE_DIR)/
	@trap 'cp $(BENCH_BASELINE_DIR)/BENCH_expansion.json $(BENCH_BASELINE_DIR)/BENCH_radio.json $(BENCH_BASELINE_DIR)/BENCH_service.json $(BENCH_BASELINE_DIR)/BENCH_ingest.json .' EXIT INT TERM; \
	$(GO) test -bench=. -benchtime=$(BENCH_GATE_TIME) -run='^$$' ./... && \
	$(GO) run ./cmd/benchgate -tol $(BENCH_GATE_TOL) \
		$(BENCH_BASELINE_DIR)/BENCH_expansion.json BENCH_expansion.json \
		$(BENCH_BASELINE_DIR)/BENCH_radio.json BENCH_radio.json \
		$(BENCH_BASELINE_DIR)/BENCH_service.json BENCH_service.json \
		$(BENCH_BASELINE_DIR)/BENCH_ingest.json BENCH_ingest.json

# Refresh the committed perf baselines with steady-state timings (the
# regime bench-gate measures in; `make bench`'s single iteration is too
# noisy to serve as a baseline). Commit the rewritten BENCH_*.json.
bench-baseline:
	$(GO) test -bench=. -benchtime=$(BENCH_BASELINE_TIME) -run='^$$' ./...

# Refresh BENCH_load.json: a single wexpd plus a 3-backend routed fleet
# (every process pinned to GOMAXPROCS=1 so the per-node capacity is
# comparable across machines), measured with cmd/wexpload on the cached
# and mixed profiles. Commit the rewritten BENCH_load.json.
bench-load:
	@mkdir -p artifacts/bench-load
	$(GO) build -o artifacts/bench-load/wexpd ./cmd/wexpd
	$(GO) build -o artifacts/bench-load/wexprouter ./cmd/wexprouter
	$(GO) build -o artifacts/bench-load/wexpload ./cmd/wexpload
	@set -e; trap 'kill 0 2>/dev/null || true' EXIT INT TERM; \
	GOMAXPROCS=1 artifacts/bench-load/wexpd -addr 127.0.0.1:18081 & \
	GOMAXPROCS=1 artifacts/bench-load/wexpd -addr 127.0.0.1:18082 & \
	GOMAXPROCS=1 artifacts/bench-load/wexpd -addr 127.0.0.1:18083 & \
	GOMAXPROCS=1 artifacts/bench-load/wexpd -addr 127.0.0.1:18084 & \
	GOMAXPROCS=1 artifacts/bench-load/wexprouter -addr 127.0.0.1:18080 \
		-backends http://127.0.0.1:18082,http://127.0.0.1:18083,http://127.0.0.1:18084 \
		-edge-cache-mb 64 & \
	sleep 1; \
	artifacts/bench-load/wexpload -target http://127.0.0.1:18081 -label single   -profile cached -count 50000 -out BENCH_load.json; \
	artifacts/bench-load/wexpload -target http://127.0.0.1:18080 -label routed-3 -profile cached -count 50000 -out BENCH_load.json -append; \
	artifacts/bench-load/wexpload -target http://127.0.0.1:18081 -label single   -profile mixed  -count 30000 -out BENCH_load.json -append; \
	artifacts/bench-load/wexpload -target http://127.0.0.1:18080 -label routed-3 -profile mixed  -count 30000 -out BENCH_load.json -append; \
	artifacts/bench-load/wexpload -target http://127.0.0.1:18081 -label single   -profile cached -rate 20000 -count 30000 -depth 64 -out BENCH_load.json -append

# Full E1–E14 reproduction run through the sharded engine: JSON artifacts,
# shard checkpoints and MANIFEST.json land in artifacts/experiments. A
# killed run resumes with:
#   go run ./cmd/experiments -resume artifacts/experiments
experiments:
	$(GO) run ./cmd/experiments -out artifacts/experiments

# Capture CPU + heap profiles of an expansion-heavy wexp run (hypercube
# n = 16 with the full exact sweep), so perf PRs start from a measured
# profile instead of a guess. Inspect with:
#   go tool pprof artifacts/wexp-cpu.pprof
#   go tool pprof artifacts/wexp-mem.pprof
profile:
	@mkdir -p artifacts
	$(GO) run ./cmd/wexp -family hypercube -size 4 -alpha 0.5 -workers 1 \
		-cpuprofile artifacts/wexp-cpu.pprof -memprofile artifacts/wexp-mem.pprof >/dev/null
	@echo "profiles written to artifacts/wexp-{cpu,mem}.pprof"

# The wexpd graph-analysis service on :8080 (see internal/service/README.md
# for the API and the caching/determinism contract).
serve:
	$(GO) run ./cmd/wexpd -addr :8080

clean:
	$(GO) clean ./...
	rm -rf artifacts

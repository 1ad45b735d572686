# Single source of truth for the commands CI runs — humans and the
# workflow in .github/workflows/ci.yml invoke the same targets.

GO ?= go

# Pinned staticcheck, installed on demand through the module proxy —
# no global tool install, the version is part of the repo contract.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build test race race-recovery bench bench-plans bench-serve bench-tenants bench-compare bench-cluster perfbench-check lint fmt vet staticcheck cover

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: full test suite under the race detector (what CI gates on).
race:
	$(GO) test -race ./...

## race-recovery: the crash-recovery suite under the race detector,
## verbose output captured to recovery.log (CI uploads it). Covers
## the WAL round-trip/torn-tail/corrupt-record store tests driven by
## the faultfs injector, and the service-level kill-mid-load tests
## that require re-admission in order plus bit-identical
## re-execution.
race-recovery:
	$(GO) test -race -count=1 -v ./internal/faultfs/ > recovery.log 2>&1 \
		|| { cat recovery.log; exit 1; }
	$(GO) test -race -count=1 -v \
		-run 'Recovery|Crash|Durab|WAL|Torn|Corrupt|Snapshot|WatchDrops' \
		./internal/serve/ >> recovery.log 2>&1 \
		|| { cat recovery.log; exit 1; }
	@grep -cE '^--- PASS' recovery.log | xargs -I{} echo "recovery suite: {} tests passed (recovery.log)"

## bench: one pass over every benchmark plus the S_8 engine perf
## record (written to BENCH_engine.json), including the replay-path
## GOMAXPROCS 1→8 scaling curve. Run with BENCH_ENGINE_GATE=1 (CI's
## bench job does) to additionally fail unless parallel replay beats
## sequential replay by ≥ 1.5x at 4 procs; the gate skips itself on
## hosts with fewer than 4 CPUs, where extra procs only time-slice.
bench:
	BENCH_ENGINE_RECORD=1 $(GO) test -run TestEngineBenchRecord -count=1 .
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

## bench-plans: the compiled-route-plan perf gate. Runs multi-worker
## (GOMAXPROCS=2): writes BENCH_plans.json, fails if plan replay is
## slower than closure resolution on the S_8 sweep, then runs the
## plans parity experiment on the pooled parallel engine.
bench-plans:
	GOMAXPROCS=2 BENCH_PLANS_RECORD=1 $(GO) test -run TestPlanBenchRecord .
	GOMAXPROCS=2 $(GO) run ./cmd/experiments -run plans -engine parallel

## bench-serve: the job-service load smoke. Starts the service
## in-process and drives the closed-loop load generator — every byte
## through the typed v1 client (submit + watch streams) — with
## per-shape machine pooling on and off, a WAL-durable run and a
## bare (metrics-off) run (GOMAXPROCS=2), writes BENCH_serve.json,
## and fails if pooled throughput falls below build-per-job, the WAL
## costs more than 10% of pooled throughput, the observability layer
## costs more than 5% of bare throughput, the /v1/metrics exposition
## fails format validation, or any job result diverges from a
## standalone run.
bench-serve:
	GOMAXPROCS=2 BENCH_SERVE_GATE=1 $(GO) run ./cmd/experiments -run serve

## bench-tenants: the multi-tenant fairness gate. One hot tenant
## (weight 2, 8 closed-loop clients) floods the queue while three
## light tenants (weight 1, 3 clients each) keep working, all over
## real HTTP with per-tenant API keys. Writes BENCH_tenants.json and
## fails if a light tenant's p99 queue wait under contention exceeds
## 2x its solo baseline or any tenant's throughput share deviates
## more than 15% from its fair-queueing weight.
bench-tenants:
	GOMAXPROCS=4 BENCH_TENANTS_GATE=1 $(GO) run ./cmd/experiments -run tenants

## bench-cluster: the sharded-cluster gate. Boots three one-worker
## nodes in-process behind real HTTP listeners, drives the same
## closed-loop load through the routing client against the cluster
## and against a single identical node (GOMAXPROCS=4), writes
## BENCH_cluster.json, and fails if the cluster speedup falls below
## 1.8x, any job result diverges from a standalone run, or the
## drain exercise fails to migrate its held backlog bit-identically.
## The speedup gate skips itself on hosts with fewer than 4 CPUs.
bench-cluster:
	GOMAXPROCS=4 BENCH_CLUSTER_GATE=1 $(GO) run ./cmd/experiments -run cluster

## bench-compare: the interval bench-regression gate. Repeats the
## S_8 sweep (default 5 reps), writes the min/median/max interval to
## BENCH_compare_new.json and fails only when the fresh throughput
## interval falls wholly below the committed BENCH_compare.json
## baseline interval (scaled by BENCH_COMPARE_MARGIN; no
## single-number flake gating).
bench-compare:
	GOMAXPROCS=2 BENCH_COMPARE_GATE=1 $(GO) run ./cmd/experiments -run bench-compare

## perfbench-check: vet and test the benchmark in perfbench/. It is a
## module of its own (replace starmesh => ../), so build, lint and
## race, which cover ./... of the root module, never reach it.
perfbench-check:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test -count=1 .

## lint: gofmt divergence fails the build; vet and staticcheck catch
## the rest.
lint: vet staticcheck
	@fmtout=$$(gofmt -l .); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi

vet:
	$(GO) vet ./...

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

## cover: whole-module coverage profile + per-package floors for the
## scenario registry, the job service, the typed v1 client and the
## metrics core (whose exposition format other tools parse — it gets
## the highest floor). CI uploads coverage.out.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1
	$(GO) run ./cmd/covercheck -profile coverage.out \
		-floor starmesh/internal/workload=70 \
		-floor starmesh/internal/serve=94 \
		-floor starmesh/client=80 \
		-floor starmesh/internal/obs=90

fmt:
	gofmt -w .

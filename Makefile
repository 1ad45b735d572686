# Single source of truth for the commands CI runs — humans and the
# workflow in .github/workflows/ci.yml invoke the same targets.

GO ?= go

# Pinned staticcheck, installed on demand through the module proxy —
# no global tool install, the version is part of the repo contract.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build test race race-recovery bench bench-serve bench-tenants bench-cluster perfbench-check fuzz-short lint fmt vet staticcheck cover

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

## The four bench targets set BENCH_DIR, the one bench switch: each
## bench writes its BENCH_*.json record into that directory (here the
## repo root) and then enforces its gates, so a failed gate still
## leaves the record behind. Without BENCH_DIR (plain `go test ./...`,
## `go run ./cmd/experiments`) no record is written and a missed gate
## only prints a warning. The gates that need real cores skip
## themselves on hosts with fewer than 4 CPUs.
BENCH = BENCH_DIR=$(CURDIR)

## bench: the S_8 engine record (BENCH_engine.json) from
## TestEngineBenchRecord — closure path, replay vs closure per sweep,
## and five single-sweep replays — with parity asserted at every
## point. Gates: plan replay no slower than closure per sweep; the
## regression rule against the committed record (fails only when the
## fresh sweeps/s interval lies wholly below 0.5 × the committed
## one). Then one pass over every benchmark. The route paths' parity
## on generated schedules is FuzzExecutorsAgree's job (fuzz-short).
bench:
	$(BENCH) $(GO) test -v -run '^TestEngineBenchRecord$$' -count=1 .
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

## bench-serve: the job-service load smoke. Starts the service
## in-process and drives the closed-loop load driver — every byte
## through the typed v1 client (submit + watch streams) — with
## per-shape machine pooling on and off, a WAL-durable run and a
## bare (metrics-off) run (GOMAXPROCS=2), writes BENCH_serve.json,
## and fails if pooled throughput falls below build-per-job, the WAL
## costs more than 10% of pooled throughput, the observability layer
## costs more than 5% of bare throughput, an instrumented run's
## /v1/metrics scrape fails format validation, or any job result
## diverges from a standalone run.
bench-serve:
	GOMAXPROCS=2 $(BENCH) $(GO) run ./cmd/experiments -run serve

## bench-tenants: the multi-tenant fairness gate. One hot tenant
## (weight 2, 8 closed-loop clients) floods the queue while three
## light tenants (weight 1, 3 clients each) keep working, all over
## real HTTP with per-tenant API keys. Writes BENCH_tenants.json and
## fails if a light tenant's p99 queue wait under contention exceeds
## 2x its solo baseline, any tenant's throughput share deviates
## more than 15% from its fair-queueing weight, or any job result
## diverges from a standalone run.
bench-tenants:
	GOMAXPROCS=4 $(BENCH) $(GO) run ./cmd/experiments -run tenants

## bench-cluster: the sharded-cluster gate. Boots three one-worker
## nodes in-process behind real HTTP listeners, drives the same
## closed-loop load through the routing client against the cluster
## and against a single identical node (GOMAXPROCS=4), writes
## BENCH_cluster.json, and fails if the cluster speedup falls below
## 1.8x, any job result diverges from a standalone run, or the
## drain exercise fails to migrate its held backlog bit-identically.
## The speedup gate skips itself on hosts with fewer than 4 CPUs.
bench-cluster:
	GOMAXPROCS=4 $(BENCH) $(GO) run ./cmd/experiments -run cluster

## perfbench-check: vet and test the benchmark in perfbench/. It is a
## module of its own (replace starmesh => ../), so build, lint and
## race, which cover ./... of the root module, never reach it.
perfbench-check:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test -count=1 .

## fuzz-short: every native fuzz target for a fixed 10s each: the D_n
## coordinate conversions and neighbor and rank maps in internal/core;
## in internal/serve the /v1/stats log-bucket latency window, checked
## against a sort-based reference and a recount of its ring, the
## job-record codec, checked against encoding/json both ways (with
## DecodeJob and the typed client's spec and batch request bodies),
## WAL replay of arbitrary checksummed records and snapshots, the
## job-spec and batch request decoder of POST /v1/jobs and
## /v1/jobs:batch, checked against the json.Decoder with
## DisallowUnknownFields it stands in for, and the -tenants file
## loader; in internal/cluster
## the compound pagination cursor and the -peers flag parser; in
## internal/workload the pooled-machine differential, which runs
## generated job sequences sharing one pool shape back to back on one
## reset resource, with plans on and off, and requires every result to
## equal a standalone run; in the root package the route-path
## differential, which runs generated unit-route schedules on star,
## mesh and hypercube machines along the closure, replay and generic
## star paths and requires bit-identical results.
## Minimization is capped at 100 runs per input: the latency window
## target's inputs run to 10 kB, and minimizing each new interesting
## one for the default 60s would eat the whole budget. A failing input
## is still saved under the package's testdata/fuzz.
FUZZ = $(GO) test -run='^$$' -fuzztime=10s -fuzzminimizetime=100x

fuzz-short:
	$(FUZZ) -fuzz='^FuzzConvertRoundTrip$$' ./internal/core
	$(FUZZ) -fuzz='^FuzzNeighborConsistency$$' ./internal/core
	$(FUZZ) -fuzz='^FuzzRankUnrank$$' ./internal/core
	$(FUZZ) -fuzz='^FuzzPercentilesNs$$' ./internal/serve
	$(FUZZ) -fuzz='^FuzzJobCodec$$' ./internal/serve
	$(FUZZ) -fuzz='^FuzzWALReplay$$' ./internal/serve
	$(FUZZ) -fuzz='^FuzzSpecDecode$$' ./internal/serve
	$(FUZZ) -fuzz='^FuzzLoadTenantsFile$$' ./internal/serve
	$(FUZZ) -fuzz='^FuzzDecodeCursor$$' ./internal/cluster
	$(FUZZ) -fuzz='^FuzzParsePeers$$' ./internal/cluster
	$(FUZZ) -fuzz='^FuzzPooledRunsAgree$$' ./internal/workload
	$(FUZZ) -fuzz='^FuzzExecutorsAgree$$' .

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

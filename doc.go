// Package starmesh is a library reproduction of "Embedding Meshes on
// the Star Graph" (Ranka, Wang, Yeh; Syracuse CIS-89-9, SC 1990).
//
// The star graph S_n connects n! processors, each labeled by a
// permutation of n symbols, with an edge whenever two labels differ
// by exchanging the front symbol with another position. The paper
// shows that the (n-1)-dimensional mesh D_n of shape 2×3×…×n embeds
// into S_n with expansion 1 and dilation 3, and that one SIMD mesh
// unit route runs in at most 3 star unit routes without conflicts —
// so mesh algorithms transfer to the star graph at a constant
// factor.
//
// The root package is the public facade. It exposes:
//
//   - the node conversion algorithms of Figures 5 and 6
//     (MapMeshNode, UnmapStarNode),
//   - the closed-form mesh-neighbor and path constructions of
//     Lemmas 2-3 (MeshNeighbor, EdgePath),
//   - the assembled embedding with quality metrics (NewEmbedding),
//   - the star graph itself (NewStar) with exact distances, optimal
//     routing, diameter and broadcast, and
//   - SIMD machine simulators for both the mesh and the star
//     (NewMeshMachine, NewStarMachine) that count unit routes, the
//     paper's complexity measure. Each unit route is one pass over
//     the senders in ascending PE order, first message wins. Register
//     state lives in flat cache-line-aligned banks whose slices stay
//     stable across growth and Reset, so hot loops hoist register
//     slices once (docs/architecture.md walks the layers).
//
// # Plans
//
// The machines compile pure unit-route schedules ahead of time
// (WithPlans, on by default): the first execution records each route
// as a dense delivery table — validated against the topology, sorted
// by ascending destination — and later executions replay the tables
// as permutation applies over the register banks (blocky steps
// collapse to copy calls), skipping closure dispatch, Neighbor calls
// and register-map lookups entirely. Record when a schedule will repeat
// (sort phases, sweeps, broadcasts); replay is bit-identical to
// closure resolution, and compiled plans are shared across machines
// of the same shape through SharedPlans. Purity is the contract: a
// recordable schedule consists of unit routes whose port/mask
// functions depend only on the topology; schedules that run
// Set/Apply while recording are marked impure and never replayed.
//
// # Scenario registry
//
// Every runnable workload is a scenario family registered in
// internal/workload's Registry — the single source of truth mapping
// a kind string to spec validation and defaults, the machine-pool
// shape key, a resource constructor, a machine-accepting runner and
// the naming scheme. The job service, the experiments, both commands
// and this facade all dispatch through it, so adding a scenario is
// ONE Register call; there are no per-layer kind switches anywhere.
// Ten families ship built in: sort, shear, broadcast, sweep,
// faultroute, embedrect (the appendix's rectangular meshes),
// permroute (oblivious permutation routing), virtual (D_{n+1} on
// S_n), diagnostics (connectivity under vertex holes) and pipeline
// (embed → sort → broadcast chained on one machine with Reset
// between phases). ScenarioKinds lists them, ScenarioCatalog renders
// the registry's catalog (the README table is that exact output),
// and RunScenario executes any spec standalone with results
// bit-identical to the job service's pooled execution.
//
// # Service
//
// The serve layer (internal/serve; `starmesh serve` on the CLI;
// NewJobService/ServeJobs on the facade) runs the simulators as a
// long-running job service: typed JobSpecs — the workload scenarios
// as data — admitted through a bounded scheduler with backpressure
// (a full queue rejects immediately) and cancellation, executed on
// per-shape machine pools, and exposed over a versioned v1 HTTP API:
// POST /v1/jobs (and the atomic /v1/jobs:batch), GET /v1/jobs with
// status filter + cursor pagination, GET /v1/jobs/{id}/watch
// streaming status transitions, DELETE /v1/jobs/{id} — which cancels
// queued AND running jobs, the runners' cooperative checkpoints
// bounding the abort latency — plus /v1/stats and a drain-aware
// /v1/healthz, all with a typed structured-error taxonomy. The
// public typed client (package starmesh/client) is the supported
// remote caller: the CLI's submit/jobs/cancel/watch/stats
// subcommands and the load generator dispatch exclusively through
// it. Graceful drain honors the caller's deadline
// (Service.Shutdown), canceling stragglers at their checkpoints. The pools amortize everything
// expensive about a machine — topology tables, Lemma-3 route
// tables, the embedding's vertex map, compiled-plan binding — across
// jobs of the same topology shape: a machine is checked out, runs one
// job, is Reset (registers and stats zeroed, amortized state kept)
// and parked for the next job. Each family's shape tables stay with
// the machine as well: embedrect's grouped realization per d and the
// snake sort's tables on star:N, shear's compare-exchange roles on
// mesh:RxC, the virtual sort's roles on virtual:N and the neighbour
// table of S_n on stargraph:N. Every phase whose routes depend only
// on the shape replays as a compiled plan.
// Pooled results are bit-identical to building a fresh machine per
// job, because both paths run the same workload runners; the serve
// experiment asserts that parity and BENCH_serve.json records the
// measured closed-loop throughput of pooling on vs off
// (`make bench-serve` regenerates it).
//
// See README.md for the system inventory; cmd/experiments
// regenerates every figure and table of the paper (the plans
// experiment asserts that plan replay is bit-identical to closure
// resolution). BENCH_engine.json records the engine's measured
// performance on an S_8 workload (the closure and replay paths and
// the repeated sweeps the regression gate compares); `make bench`
// regenerates it, and docs/benchmarks.md documents every record's
// schema and CI gate.
package starmesh

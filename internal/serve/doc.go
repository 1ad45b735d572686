// Package serve is the simulation job service: the long-running
// layer that turns the starmesh library into a system. It accepts
// typed JobSpecs — workload scenarios as data — admits them through
// a bounded scheduler with backpressure and cancellation, executes
// them on per-shape machine pools, records every outcome in a job
// store with latency/cost aggregation (global and per scenario
// kind), and exposes the whole thing over an HTTP JSON API. The
// store is in-memory by default; Config.StoreDir attaches its
// write-ahead log, with crash recovery.
//
// The service carries NO scenario knowledge of its own: validation,
// pool shapes, machine construction and execution all dispatch
// through the scenario registry (internal/workload.Builtin), so a
// family registered there — sort, shear, broadcast, sweep,
// faultroute, embedrect, permroute, virtual, diagnostics, pipeline —
// is immediately servable with pooling, parity and stats for free.
//
// # Per-shape machine pools
//
// Building a simulation machine is the expensive part of a job: the
// star topology materializes n!·(n-1) neighbor links, the Lemma-3
// route tables cost O(n!·n²) per (k, dir), the embedding's vertex
// map costs another O(n!·n²), and compiled route plans must be bound
// and validated per machine. All of that state is a pure function of
// the machine's shape — its topology — so the service checks
// machines out of a pool keyed by shape, runs one job, resets the
// machine (registers and stats zeroed; see simd.Machine.Reset) and
// checks it back in. Jobs of the same shape then pay construction
// once, while the paper's cost model guarantees the reported results
// (unit routes, conflicts, self-check) are bit-identical to a
// fresh-machine run of the same seed: the runners in
// internal/workload are the single implementation behind both paths.
// Disabling pooling (Config.NoPool) restores build-per-job — the
// measured baseline of BENCH_serve.json.
//
// # Scheduler and cancellation
//
// Admission is a bounded queue: Submit either enqueues the job or
// fails fast with ErrQueueFull (HTTP 429), so overload sheds load
// instead of accumulating it; SubmitBatch admits a set of specs
// atomically — all queued or none. A fixed worker set drains the
// queue. Every job runs under its own context, threaded from the
// scheduler through workload.Family.Run into the scenario runners,
// which carry cooperative cancellation checkpoints in their long
// loops — so Cancel (HTTP DELETE) aborts queued AND running jobs:
// a running job stops at its next checkpoint with bounded latency,
// ends in the terminal "canceled" status with its partial stats
// preserved, and its machine returns to the pool Reset-safe.
// Canceling a terminal job is the typed ErrTerminal conflict (409).
//
// Shutdown(ctx) drains under the caller's deadline: admission stops
// (ErrDraining, HTTP 503; /v1/healthz reports "draining" while the
// listener still answers), admitted jobs run to completion, and at
// the deadline the stragglers are canceled at their checkpoints.
// Drain is Shutdown without a deadline.
//
// # Durable store and crash recovery
//
// There is one store type. By default it keeps jobs in memory only;
// Config.StoreDir attaches its write-ahead log (wal.go): every state
// transition appends one CRC32C-framed record to an append-only log
// under the store mutex, a full-store snapshot rotates in atomically
// (truncating the log) once the log since the last snapshot is at
// least that snapshot's size and 1 MiB, and opening the directory
// after a crash replays snapshot + tail — torn or corrupt tails
// truncated, queued jobs re-admitted in admission order, interrupted
// running jobs re-executed bit-exactly from their seeded specs, and
// jobs with a pending cancel request finalized as canceled. Runtime
// disk failure degrades the store to memory-only rather than failing
// submissions; the condition and the recovery counters are exposed in
// the Durability block of /v1/healthz and /v1/stats. See
// docs/durability.md for the record format and the crash matrix;
// internal/faultfs is the deterministic fault-injection harness the
// recovery tests are built on.
//
// # Multi-tenant traffic shaping
//
// Tenancy is first-class (tenant.go, sched.go; docs/tenancy.md).
// Config.Tenants — loaded from a JSON registry by LoadTenantsFile —
// maps API keys to named tenants, each with a fair-queueing weight,
// an optional token-bucket rate limit (429 rate_limited with a
// computed Retry-After) and an optional per-tenant queue quota.
// Submissions resolve the X-API-Key header to a tenant (missing key
// = the anonymous tenant, or 401 unauthorized under RequireKey),
// and the admission queue is a weighted fair queue: deficit
// round-robin over per-tenant queues, so a flooding tenant
// lengthens only its own backlog and backlogged tenants complete
// jobs in proportion to their weights. Spec.Priority (0-9) orders
// jobs within one tenant's queue and can preempt a running
// lower-priority multi-trial sweep at its cancellation checkpoint —
// the victim requeues with partial stats and re-executes
// bit-identically. Stats carries a sliding-window per-tenant
// leaderboard (StatsWindow) with Poisson throughput intervals and
// rank-uncertainty bounds.
//
// Every percentile in Stats — job latency over the most recent
// finishes, each tenant's queue wait over the window — is read from
// log-bucket counts (DDSketch's logarithmic mapping at α = 1%) of
// one ring of the last 4096 finishes, which also bounds the
// leaderboard: it lies within 1% of the exact nearest-rank value over
// the same finishes, plus ½ ns of rounding.
//
// # The v1 contract
//
// The HTTP surface lives under /v1 only:
//
//	POST   /v1/jobs            submit a JobSpec          → 202 Job
//	POST   /v1/jobs:batch      atomic multi-spec submit  → 202 {jobs}
//	GET    /v1/jobs            status filter + cursor    → 200 JobPage
//	GET    /v1/jobs/{id}       job status and result     → 200 Job
//	DELETE /v1/jobs/{id}       cancel queued or running  → 200 Job
//	GET    /v1/jobs/{id}/watch ndjson transition stream  → 200 Job…
//	GET    /v1/stats           aggregated view, ?window= → 200 Stats
//	GET    /v1/healthz         liveness + drain state    → 200/503 Health
//
// Errors are structured — {"error":{"code":…,"message":…}} — with a
// typed code taxonomy (ErrorCode) mapped to HTTP statuses exactly
// once (errors.go): invalid_spec/invalid_argument 400, unauthorized
// 401, not_found 404, terminal 409, queue_full/rate_limited 429
// (+Retry-After), draining 503, internal 500. Response bodies are
// compact JSON: one value per response, with no indentation, ending
// in a newline; the starmesh CLI pretty-prints what it shows. The
// watch stream (application/x-ndjson) is a store subscription, one
// compact job value per line: every status transition publishes a
// snapshot; the stream ends after the terminal one, which goes out
// with the end of the body so that the connection stays reusable. Job, page and
// batch bodies and watch lines are written by the job codec
// (jobjson.go), byte for byte what encoding/json writes for the same
// value; the other bodies by encoding/json itself.
//
// The public typed client (starmesh/client) is the supported caller:
// the CLI's remote subcommands and the load generator
// (internal/loadgen, behind BENCH_serve.json) contain no hand-rolled
// HTTP. It writes its spec and batch request bodies with AppendSpec
// and AppendBatchRequest (the codec's bytes, which the submit
// handlers decode without
// reflection) and reads every response into a recycled buffer: job
// bodies and watch lines through DecodeJob, which fills a Job on the
// caller's stack, the rest through DecodeJSON. Both read the codec's
// canonical form directly, share the strings of closed sets
// (statuses, trace events, kinds, distributions, patterns, the
// default tenant) and leave any other input to json.Unmarshal.
package serve

package starmesh

import (
	"context"

	"starmesh/internal/serve"
	"starmesh/internal/workload"
)

// The job service (internal/serve) turns the library into a
// long-running system: typed JobSpecs are admitted through a bounded
// scheduler with backpressure and cancellation (queued AND running —
// every runner carries cooperative checkpoints), executed on
// per-shape machine pools that amortize topology construction, route
// tables and compiled plans across jobs of the same topology shape,
// and recorded in an in-memory store with p50/p99 latency and
// unit-route aggregation. The facade
// re-exports the service types; `starmesh serve` runs the versioned
// v1 HTTP API, and the public typed client (package starmesh/client)
// is the supported way to drive it remotely.

// JobService is a running simulation job service.
type JobService = serve.Service

// ServiceConfig shapes a JobService; its zero value is a working
// default (GOMAXPROCS workers, 64-deep queue, pooling on, plans on).
type ServiceConfig = serve.Config

// JobSpec is the typed description of one simulation job: scenario
// kind, machine shape and parameters. All randomness derives from
// its Seed, so a spec fully determines its result.
type JobSpec = serve.JobSpec

// Job is one admitted job and its outcome.
type Job = serve.Job

// JobStatus is a job's lifecycle state.
type JobStatus = serve.Status

// ServiceStats is the aggregated service view: status counts,
// latency percentiles, unit-route totals and per-shape pool
// counters.
type ServiceStats = serve.Stats

// JobPage is one page of the v1 job listing (status filter + cursor
// pagination, newest first).
type JobPage = serve.JobPage

// JobListQuery filters and paginates JobService.ListJobs.
type JobListQuery = serve.ListQuery

// ServiceHealth is the /v1/healthz body: "ok" or "draining".
type ServiceHealth = serve.Health

// ServiceErrorCode is the v1 API's machine-readable error class; the
// HTTP layer maps each code to its status exactly once.
type ServiceErrorCode = serve.ErrorCode

// Job kinds accepted by the service — one constant per registered
// scenario family; ScenarioKinds returns the authoritative list.
const (
	JobSort        = serve.KindSort
	JobShear       = serve.KindShear
	JobBroadcast   = serve.KindBroadcast
	JobSweep       = serve.KindSweep
	JobFaultRoute  = serve.KindFaultRoute
	JobEmbedRect   = serve.KindEmbedRect
	JobPermRoute   = serve.KindPermRoute
	JobVirtual     = serve.KindVirtual
	JobDiagnostics = serve.KindDiagnostics
	JobPipeline    = serve.KindPipeline
)

// ScenarioResult is one scenario run's outcome: unit-route cost,
// conflicts, self-check verdict.
type ScenarioResult = workload.ScenarioResult

// ScenarioFamily is one scenario kind's registry entry: validation,
// pool shape, construction, execution and naming in one value.
// Adding a family to the registry makes it available to the job
// service, the CLI, the experiments and RunScenario at once.
type ScenarioFamily = workload.Family

// ScenarioKinds returns every registered scenario kind in catalog
// order.
func ScenarioKinds() []string { return workload.Kinds() }

// ScenarioFamilies returns every registered scenario family in
// catalog order.
func ScenarioFamilies() []*ScenarioFamily { return workload.Builtin.Families() }

// ScenarioCatalog renders the registry's scenario table as markdown
// (the README's catalog is this exact output).
func ScenarioCatalog() string { return workload.CatalogMarkdown() }

// RunScenario validates a spec against the scenario registry and
// executes it standalone on a fresh machine (built with the given
// engine options, closed after). The result is bit-identical to the
// job service executing the same spec on a pooled machine. The
// context cancels the run at the runner's next cooperative
// checkpoint (the v1 cancellation contract).
func RunScenario(ctx context.Context, spec JobSpec, opts ...EngineOption) (ScenarioResult, error) {
	sc, err := workload.ScenarioFor(spec, opts...)
	if err != nil {
		return ScenarioResult{}, err
	}
	return sc.Run(ctx)
}

// NewJobService starts a job service (workers running, admission
// open). Shut it down with Drain, which stops admission, completes
// every admitted job and releases the machine pools.
func NewJobService(cfg ServiceConfig) (*JobService, error) {
	return serve.NewService(cfg)
}

// ServeJobs runs a job service's HTTP API on addr until ctx is
// canceled, then drains gracefully.
func ServeJobs(ctx context.Context, cfg ServiceConfig, addr string) error {
	svc, err := serve.NewService(cfg)
	if err != nil {
		return err
	}
	return svc.ListenAndServe(ctx, addr)
}

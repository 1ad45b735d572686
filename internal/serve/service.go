// Service: the bounded scheduler tying admission, per-shape pools
// and the store together. Submit either enqueues or fails fast;
// fixed workers drain the queue onto pooled machines; Drain stops
// admission, lets every admitted job finish, then releases the
// pools.
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"starmesh/internal/obs"
	"starmesh/internal/simd"
	"starmesh/internal/workload"
)

// Config shapes a Service. The zero value is a working default:
// GOMAXPROCS workers, a 64-deep queue, pooling on. Every job machine
// is built with the options EngineOptions returns.
type Config struct {
	// Workers is the number of concurrent job executors (0 =
	// GOMAXPROCS).
	Workers int `json:"workers"`
	// Queue is the admission queue depth (0 = 64). A full queue
	// rejects submissions with ErrQueueFull — backpressure, not
	// buffering.
	Queue int `json:"queue"`
	// NoPool disables per-shape machine pooling: every job builds a
	// fresh machine and closes it (the measured baseline).
	NoPool bool `json:"no_pool"`
	// DrainGrace bounds how long ListenAndServe waits for admitted
	// jobs after shutdown begins before canceling the running ones at
	// their next checkpoint (0 = 5s). Callers driving Shutdown
	// directly control the deadline through their context instead.
	DrainGrace time.Duration `json:"drain_grace_ns"`
	// StoreDir enables the durable WAL-backed job store rooted at
	// that directory ("" = in-memory). On startup the service runs
	// crash recovery there: queued jobs are re-admitted in original
	// admission order and interrupted running jobs re-execute
	// deterministically from their spec seeds.
	StoreDir string `json:"store_dir,omitempty"`
	// NoObs disables the metrics layer entirely: no registry, no
	// instrument updates on any path, /v1/metrics answers 404. The
	// bench harness uses it to measure the metrics path's own
	// overhead; production services leave it off.
	NoObs bool `json:"no_obs,omitempty"`
	// Logger receives the service's structured logs (nil = discard —
	// library consumers stay quiet; cmd wires a real handler from
	// -log-level/-log-format).
	Logger *slog.Logger `json:"-"`
	// Tenants is the API-key tenant registry (see TenantConfig and
	// the -tenants flag). Empty means single-tenant: everything runs
	// as DefaultTenant with weight 1 and no limits.
	Tenants []TenantConfig `json:"tenants,omitempty"`
	// RequireKey rejects keyless submissions with 401 unauthorized
	// instead of admitting them as DefaultTenant.
	RequireKey bool `json:"require_key,omitempty"`
}

// withDefaults resolves the zero values to their effective settings
// — the single place the running service and the bench record agree
// on what a default config means.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	return c
}

// Effective resolves the zero values to the settings a service of
// this config actually runs — exported for the bench harness, whose
// record must describe the real configuration.
func (c Config) Effective() Config { return c.withDefaults() }

// EngineOptions returns the simd options every job machine is built
// with: none, so the simd defaults hold (compiled route plans on).
// The load harness builds its standalone parity references with
// exactly these options. The error is always nil.
func (c Config) EngineOptions() ([]simd.Option, error) { return nil, nil }

// Service is a running simulation job service.
type Service struct {
	cfg        Config
	workers    int
	queueCap   int
	engineOpts []simd.Option

	store   *store
	pools   *poolSet
	sched   *wfq
	tenants *tenantSet
	start   time.Time

	// Observability: nil met/reg under Config.NoObs — every
	// instrumentation point nil-checks, so the disabled path costs one
	// branch. log is never nil (discard by default).
	met *serveMetrics
	log *slog.Logger

	// baseCtx parents every job's context; baseCancel is the
	// last-resort abort (Drain deadline passed).
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex // guards draining + the enqueue/close race
	draining bool

	// clusterInfo is this node's cluster membership (nil when not
	// clustered; see SetCluster). An atomic pointer because the
	// harness installs it after the listeners are up, concurrently
	// with serving.
	clusterInfo atomic.Pointer[ClusterInfo]
	// drainRequested nudges ListenAndServe into graceful shutdown
	// when POST /v1/drain fires (buffered: the signal must not block
	// the handler, and services driven without ListenAndServe just
	// never read it).
	drainRequested chan struct{}

	wg       sync.WaitGroup
	finishOf sync.Once
	drained  chan struct{}
}

// NewService validates the config and starts the worker set.
func NewService(cfg Config) (*Service, error) {
	return newService(cfg, true)
}

// newService optionally holds the workers back — tests use a stopped
// service to observe queued state deterministically.
func newService(cfg Config, startWorkers bool) (*Service, error) {
	eff := cfg.withDefaults()
	opts, _ := eff.EngineOptions() // never fails
	tenants, err := newTenantSet(eff.Tenants, eff.RequireKey)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	st, err := openStore(eff.StoreDir, nil)
	if err != nil {
		return nil, err
	}
	recovered := st.recoveredQueued()
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        eff,
		workers:    eff.Workers,
		queueCap:   eff.Queue,
		engineOpts: opts,
		store:      st,
		pools:      newPoolSet(!eff.NoPool),
		// The scheduler holds the recovered backlog ahead of the
		// configured depth, exactly as the old channel did, so
		// re-admission never rejects and new submissions still see
		// eff.Queue of fresh capacity.
		sched:          newWFQ(eff.Queue + len(recovered)),
		tenants:        tenants,
		start:          time.Now(),
		baseCtx:        baseCtx,
		baseCancel:     baseCancel,
		drained:        make(chan struct{}),
		drainRequested: make(chan struct{}, 1),
	}
	s.log = eff.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if !eff.NoObs {
		s.met = newServeMetrics(s)
		// Store hooks: queue-wait and run-time histograms plus the
		// terminal counters, observed under the store lock where the
		// transitions are ordered.
		met := s.met
		st.setHooks(
			func(tenant, kind string, wait time.Duration) {
				met.queueWaitSeconds.Observe(wait.Seconds())
				met.tenantQueueWait.With(tenant).Observe(wait.Seconds())
			},
			func(status Status, tenant, kind string, run time.Duration, ran bool) {
				if ran {
					met.jobRunSeconds.With(kind).Observe(run.Seconds())
				}
				met.jobsFinished.With(string(status), kind, tenant).Inc()
			},
		)
		if st.wal != nil {
			st.wal.obs = &s.met.wal
		}
		// Every machine the pools build reports into the engine
		// counters.
		s.engineOpts = append(s.engineOpts, simd.WithCollector(s.met))
	}
	// Re-admit recovered work in original admission order before any
	// worker starts or any new submission lands. Forced pushes ride
	// above the configured capacity (new submissions still see
	// eff.Queue of fresh room) and land in each job's tenant queue by
	// admission sequence — so per-tenant order survives the crash.
	for _, id := range recovered {
		job, ok := s.store.get(id)
		if !ok {
			continue
		}
		s.enqueue(job, true)
	}
	if startWorkers {
		for i := 0; i < s.workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
	return s, nil
}

// Submit validates and admits a job as the default (anonymous)
// tenant, returning its queued snapshot. A full queue fails fast
// with ErrQueueFull; a draining service with ErrDraining; a bad spec
// with an error wrapping ErrInvalidSpec. Under Config.RequireKey it
// fails with ErrUnauthorized — use SubmitWithKey.
func (s *Service) Submit(spec JobSpec) (Job, error) { return s.SubmitWithKey("", spec) }

// SubmitWithKey resolves the tenant of an X-API-Key value ("" = the
// default tenant, unless RequireKey) and admits the job through that
// tenant's rate limit, quota and queue. On top of Submit's errors:
// an unknown key is ErrUnauthorized, an empty token bucket a
// *RateLimitError (429 with Retry-After), a tenant over its
// MaxQueued quota a *TenantQueueFullError.
func (s *Service) SubmitWithKey(apiKey string, spec JobSpec) (Job, error) {
	t, err := s.tenants.forKey(apiKey)
	if err != nil {
		s.reject("", "unauthorized")
		return Job{}, err
	}
	norm, err := spec.Normalized()
	if err != nil {
		s.reject(t.name, "invalid_spec")
		return Job{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	if t.bucket != nil {
		if wait, ok := t.bucket.take(time.Now(), 1); !ok {
			s.reject(t.name, "rate_limited")
			return Job{}, &RateLimitError{Tenant: t.name, Wait: wait}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.reject(t.name, "draining")
		return Job{}, ErrDraining
	}
	job := s.store.add(norm, t.name, time.Now())
	if err := s.enqueue(job, false); err != nil {
		s.store.remove(job.ID)
		s.reject(t.name, "queue_full")
		return Job{}, err
	}
	s.admitted(t.name, norm.Kind)
	s.maybePreempt(norm.Priority)
	return job, nil
}

// enqueue pushes a job into its tenant's queue. force bypasses
// capacity and quota (recovery re-admission, preemption requeues).
func (s *Service) enqueue(job Job, force bool) error {
	t, known := s.tenants.byName[job.Tenant]
	weight, maxQueued := 1, 0
	if known {
		weight, maxQueued = t.weight, t.maxQueued
	}
	return s.sched.push(job.Tenant, weight, maxQueued,
		queuedJob{id: job.ID, seq: seqOf(job.ID), priority: job.Spec.Priority}, force)
}

// maybePreempt checks whether a just-admitted job of this priority
// should bounce a running lower-priority sweep back to its queue.
// Only fires when every worker is busy — with free workers the new
// job gets picked up anyway.
func (s *Service) maybePreempt(priority int) {
	if priority <= 0 {
		return
	}
	if id, ok := s.store.requestPreempt(priority, s.workers); ok {
		if s.met != nil {
			s.met.tenantPreempts.With().Inc()
		}
		s.log.Info("job preempted for higher-priority submission", "job", id, "priority", priority)
	}
}

// admitted counts one admission.
func (s *Service) admitted(tenant, kind string) {
	if s.met != nil {
		s.met.jobsAdmitted.With(kind).Inc()
		s.met.tenantAdmitted.With(tenant).Inc()
	}
}

// reject counts one refused submission ("" tenant = the key never
// resolved).
func (s *Service) reject(tenant, reason string) {
	if s.met != nil {
		s.met.jobsRejected.With(reason).Inc()
		if tenant != "" {
			s.met.tenantRejected.With(tenant, reason).Inc()
		}
	}
}

// SubmitBatch validates and admits a set of jobs atomically as the
// default tenant — see SubmitBatchWithKey.
func (s *Service) SubmitBatch(specs []JobSpec) ([]Job, error) {
	return s.SubmitBatchWithKey("", specs)
}

// SubmitBatchWithKey validates and admits a set of jobs atomically
// under one tenant: either every spec is valid, the tenant's bucket
// covers the whole batch and the queue (global and tenant quota) has
// room for all of them — each becomes a queued job, in order — or
// nothing is admitted. Validation failures return a *BatchError
// (wrapping ErrInvalidSpec) naming every offending index;
// insufficient queue space is ErrQueueFull.
func (s *Service) SubmitBatchWithKey(apiKey string, specs []JobSpec) ([]Job, error) {
	t, err := s.tenants.forKey(apiKey)
	if err != nil {
		s.reject("", "unauthorized")
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("%w: batch needs at least one spec", ErrInvalidSpec)
	}
	norm := make([]JobSpec, len(specs))
	maxPriority := 0
	var batchErr BatchError
	for i, spec := range specs {
		n, err := spec.Normalized()
		if err != nil {
			batchErr.Items = append(batchErr.Items, BatchItemError{Index: i, Message: err.Error()})
			continue
		}
		norm[i] = n
		if n.Priority > maxPriority {
			maxPriority = n.Priority
		}
	}
	if len(batchErr.Items) > 0 {
		s.reject(t.name, "invalid_spec")
		return nil, &batchErr
	}
	// A batch larger than the whole queue can never be admitted: that
	// is a spec problem (non-retryable 400), not transient queue_full
	// backpressure a client should sleep on.
	if len(norm) > s.queueCap {
		s.reject(t.name, "invalid_spec")
		return nil, fmt.Errorf("%w: batch of %d can never fit the %d-deep queue — split it",
			ErrInvalidSpec, len(norm), s.queueCap)
	}
	// The whole batch takes tokens atomically: admitting half a batch
	// at the rate limit would break the all-or-nothing contract.
	if t.bucket != nil {
		if wait, ok := t.bucket.take(time.Now(), float64(len(norm))); !ok {
			s.reject(t.name, "rate_limited")
			return nil, &RateLimitError{Tenant: t.name, Wait: wait}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.reject(t.name, "draining")
		return nil, ErrDraining
	}
	// Capacity check under the admission lock: workers only ever free
	// space, so the per-spec pushes cannot fail once this passes.
	if free := s.sched.free(); free < len(norm) {
		s.reject(t.name, "queue_full")
		return nil, fmt.Errorf("%w: batch of %d exceeds free queue capacity %d",
			ErrQueueFull, len(norm), free)
	}
	if t.maxQueued > 0 && s.sched.queuedFor(t.name)+len(norm) > t.maxQueued {
		s.reject(t.name, "queue_full")
		return nil, &TenantQueueFullError{Tenant: t.name, MaxQueued: t.maxQueued}
	}
	jobs := make([]Job, len(norm))
	now := time.Now()
	for i, n := range norm {
		job := s.store.add(n, t.name, now)
		// force: capacity and quota were just checked for the batch as
		// a whole, and nothing can shrink them under s.mu.
		_ = s.enqueue(job, true)
		jobs[i] = job
		s.admitted(t.name, n.Kind)
	}
	s.maybePreempt(maxPriority)
	return jobs, nil
}

// Job returns a snapshot of a job by id.
func (s *Service) Job(id string) (Job, bool) { return s.store.get(id) }

// ListJobs returns one page of the job listing, newest first,
// filtered and resumed per the query.
func (s *Service) ListJobs(q ListQuery) (JobPage, error) { return s.store.page(q) }

// Watch subscribes to a job's status transitions: the current
// snapshot plus a channel that carries every subsequent transition
// and closes after the terminal one (nil if the job is already
// terminal). Call stop to unsubscribe early.
func (s *Service) Watch(id string) (Job, <-chan Job, func(), error) {
	return s.store.watch(id)
}

// Cancel aborts a job. A queued job transitions to canceled
// immediately; a running job has its context canceled and aborts at
// the next cooperative checkpoint inside its runner (the snapshot
// returned shows cancel_requested, the terminal transition follows
// with bounded latency, and the partial stats are preserved on the
// record). A terminal job returns ErrTerminal.
func (s *Service) Cancel(id string) (Job, error) {
	job, err := s.store.cancel(id, time.Now())
	if err == nil && job.Status == StatusCanceled && job.Started.IsZero() {
		// Canceled straight out of the queue: release its scheduler
		// slot so it stops counting against capacity and quota. A
		// worker racing us may have popped it already — claim skips
		// canceled jobs, and remove tolerates the absence.
		s.sched.remove(job.Tenant, id)
	}
	return job, err
}

// Stats aggregates the service view: status counts, latency
// percentiles, unit-route totals, per-shape pool counters and the
// per-tenant leaderboard over the default trailing window.
func (s *Service) Stats() Stats { return s.StatsWindow(DefaultTenantWindow) }

// StatsWindow is Stats with the tenant leaderboard computed over the
// given trailing window (GET /v1/stats?window=30s; ≤0 = default).
func (s *Service) StatsWindow(window time.Duration) Stats {
	if window <= 0 {
		window = DefaultTenantWindow
	}
	st := s.store.aggregate(time.Since(s.start))
	st.Workers = s.workers
	st.QueueCap = s.queueCap
	st.Pooling = !s.cfg.NoPool
	st.Durability = s.store.durability()
	s.mu.Lock()
	st.Draining = s.draining
	s.mu.Unlock()
	st.Pools = s.pools.stats()
	aggs, span := s.store.tenantWindow(time.Now(), window)
	st.TenantWindowNs = span.Nanoseconds()
	st.Tenants = buildTenantStats(aggs, span, s.tenants.weightOf, s.sched.depths())
	return st
}

// MetricsRegistry exposes the service's metric registry (nil under
// Config.NoObs) — the backing of GET /v1/metrics, also usable
// in-process for snapshots.
func (s *Service) MetricsRegistry() *obs.Registry {
	if s.met == nil {
		return nil
	}
	return s.met.reg
}

// Durability describes the job-store backend: "memory", or the WAL
// paths, snapshot age and boot-time recovery counts of a durable
// store (also part of /v1/healthz and /v1/stats).
func (s *Service) Durability() Durability { return s.store.durability() }

// Draining reports whether the service has begun shutting down.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// beginDrain stops admission: Submit fails with ErrDraining,
// Draining() and /v1/healthz report draining, and the workers exit once
// the queue empties. Idempotent, non-blocking — the first step of
// every shutdown path, taken before the HTTP listener dies so health
// checks see the drain while in-flight requests complete.
func (s *Service) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	s.sched.closeIntake() // Submit holds s.mu, so no push can race this
}

// Drain gracefully shuts the service down: admission stops
// (ErrDraining), every already-admitted job runs to completion, the
// workers exit, and the machine pools close. Drain blocks until all
// of that is done and is safe to call from multiple goroutines; later
// calls wait for the first. Shutdown is Drain with a deadline.
func (s *Service) Drain() { _ = s.Shutdown(context.Background()) }

// Shutdown drains the service, honoring the caller's deadline: when
// ctx fires before every admitted job has finished, the running jobs
// are canceled (they abort at their next cooperative checkpoint and
// finish as canceled with partial stats) and the queued remainder is
// skipped, so Shutdown still returns promptly — with ctx's error.
// Safe for concurrent use; every caller blocks until the pools have
// closed.
func (s *Service) Shutdown(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Deadline passed: abort running jobs at their checkpoints and
		// unblock everything still queued.
		s.baseCancel()
		s.store.cancelAllRunning()
		<-done
	}
	s.finishOf.Do(func() {
		s.pools.closeAll()
		s.store.close() // flush + close the WAL after the last transition
		close(s.drained)
	})
	<-s.drained
	return err
}

// Close is Drain (io.Closer-shaped for callers that expect one).
func (s *Service) Close() error {
	s.Drain()
	return nil
}

// worker drains the scheduler until Drain closes it and the queues
// empty.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		id, ok := s.sched.pop()
		if !ok {
			return
		}
		s.runJob(id)
	}
}

// runJob claims one queued job, executes it on a pooled machine of
// the job's shape and records the outcome. The job gets its own
// context (child of the service's), registered in the store so
// Cancel can abort it mid-run. Machine panics (the simulators panic
// on contract violations) are converted into job failures so one bad
// job cannot take the worker down.
func (s *Service) runJob(id string) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	spec, ok := s.store.claim(id, time.Now(), cancel)
	if !ok {
		return // canceled while queued
	}
	debug := s.logs(slog.LevelDebug)
	if debug {
		s.jobLog(id).Debug("job claimed", "kind", spec.Kind, "shape", spec.Shape())
	}
	res, err := s.execute(ctx, id, spec)
	requeued := s.store.finish(id, res, err, time.Now())
	if requeued {
		// Preempted at its checkpoint: back into its tenant's queue
		// (forced — a requeue must never bounce off capacity). The
		// re-execution starts from the spec's seed, so the eventual
		// result is bit-identical to an uninterrupted run.
		if job, ok := s.store.get(id); ok {
			_ = s.enqueue(job, true)
			s.jobLog(id).Info("job preempted and requeued", "kind", spec.Kind, "tenant", job.Tenant,
				"preemptions", job.Preemptions)
		}
		return
	}
	// The finish line reads the job's status back from the store, so
	// only a line the logger keeps pays for the copy.
	switch {
	case err != nil && s.logs(slog.LevelInfo):
		if done, ok := s.store.get(id); ok {
			s.jobLog(id).Info("job finished", "kind", spec.Kind, "status", string(done.Status), "error", err)
		}
	case err == nil && debug:
		if done, ok := s.store.get(id); ok {
			s.jobLog(id).Debug("job finished", "kind", spec.Kind, "status", string(done.Status),
				"unit_routes", res.UnitRoutes, "conflicts", res.Conflicts)
		}
	}
}

func (s *Service) execute(ctx context.Context, id string, spec JobSpec) (res ScenarioResult, err error) {
	// A pre-canceled job (deadline drain, cancel racing the claim)
	// skips machine checkout entirely.
	if err := ctx.Err(); err != nil {
		return res, err
	}
	fam, err := workload.FamilyOf(spec.Kind)
	if err != nil {
		return res, err
	}
	shape := fam.Shape(spec)
	pl, err := s.pools.forShape(shape, func() workload.Resource {
		return fam.Build(spec, s.engineOpts...)
	})
	if err != nil {
		return res, err
	}
	checkoutStart := time.Now()
	r, built, err := pl.checkout()
	if err != nil {
		return res, err
	}
	if s.met != nil {
		s.met.checkoutWaitSeconds.With(shape).Observe(time.Since(checkoutStart).Seconds())
	}
	// The machine_ready span: which pool served the job and whether
	// the checkout hit (reused) or missed (built).
	src := "reused"
	if built {
		src = "built"
	}
	s.store.trace(id, time.Now(), TraceMachineReady, "shape="+shape+" "+src)
	defer pl.checkin(r)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: job panicked: %v", p)
		}
	}()
	return fam.Run(ctx, spec, r)
}

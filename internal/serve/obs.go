// Metrics wiring: every instrument the service exports through
// GET /v1/metrics, in one place. Hot-path instruments (histograms,
// the counters the scheduler bumps per job) are resolved to their
// series once here; state another subsystem already tracks (queue
// depth, running jobs, pool counters, watch subscriptions, WAL
// durability) bridges in through CollectFunc closures sampled at
// scrape time, costing those subsystems nothing between scrapes.
// docs/observability.md is the rendered catalog of everything
// registered here.
package serve

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"starmesh/internal/obs"
)

// runSecondsBuckets widens the default latency buckets upward: trials
// sweeps legitimately run for minutes.
var runSecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// serveMetrics holds every resolved instrument of the service.
type serveMetrics struct {
	reg *obs.Registry

	// Scheduler.
	jobsAdmitted     *obs.CounterVec // kind
	jobsRejected     *obs.CounterVec // reason
	jobsFinished     *obs.CounterVec // status, kind, tenant
	queueWaitSeconds obs.Histogram
	jobRunSeconds    *obs.HistogramVec // kind

	// Tenancy. The per-series handles the scheduler hot path bumps
	// are cached in the maps below (struct/string keys, no joins):
	// CounterVec.With is variadic and allocates its argument slice on
	// every call, so the finish hook resolves each (status, kind,
	// tenant) series exactly once and then increments a cached handle
	// — no allocations in the steady state.
	tenantAdmittedVec *obs.CounterVec   // tenant
	tenantRejectedVec *obs.CounterVec   // tenant, reason
	tenantWaitVec     *obs.HistogramVec // tenant
	tenantPreempts    *obs.CounterVec   // (no labels; preemptions are rare)
	handleMu          sync.RWMutex
	finishedHandles   map[finishKey]obs.Counter
	admittedHandles   map[string]obs.Counter
	rejectedHandles   map[rejectKey]obs.Counter
	tenantWaitHandles map[string]obs.Histogram

	// Pools.
	checkoutWaitSeconds *obs.HistogramVec // shape

	// HTTP.
	httpRequests       *obs.CounterVec   // route, method, code
	httpRequestSeconds *obs.HistogramVec // route
	httpInFlight       obs.Gauge

	// Engine (fed through the simd.Collector adapter below).
	engineRoutes        obs.Counter
	engineConflicts     obs.Counter
	engineReplays       obs.Counter
	engineReplaySeconds obs.Histogram

	// WAL (histograms live here; counters bridge via durability()).
	wal walObs
}

// walObs is the live-observation half of the WAL metrics — the
// timings only the append/snapshot code paths can see.
type walObs struct {
	appendSeconds   obs.Histogram
	syncSeconds     obs.Histogram
	snapshotSeconds obs.Histogram
	appendBytes     obs.Counter
}

// newServeMetrics registers the full metric surface on a fresh
// registry and bridges the service's existing state in.
func newServeMetrics(s *Service) *serveMetrics {
	r := obs.NewRegistry()
	m := &serveMetrics{reg: r}

	// Scheduler.
	r.CollectFunc("starmesh_jobs_running",
		"Jobs currently executing on a worker.", obs.TypeGauge, nil,
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.store.runningCount())}} })
	m.jobsAdmitted = r.Counter("starmesh_jobs_admitted_total",
		"Jobs admitted to the queue, by scenario kind.", "kind")
	m.jobsRejected = r.Counter("starmesh_jobs_rejected_total",
		"Submissions rejected at admission, by reason (queue_full, draining, invalid_spec).", "reason")
	m.jobsFinished = r.Counter("starmesh_jobs_finished_total",
		"Jobs that reached a terminal status, by status, kind and tenant.", "status", "kind", "tenant")
	m.queueWaitSeconds = r.Histogram("starmesh_queue_wait_seconds",
		"Time jobs spent queued before a worker claimed them.", nil).With()
	m.jobRunSeconds = r.Histogram("starmesh_job_run_seconds",
		"Execution time of finished jobs, by scenario kind.", runSecondsBuckets, "kind")
	r.CollectFunc("starmesh_queue_depth",
		"Jobs waiting in the scheduler, all tenants.", obs.TypeGauge, nil,
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.sched.depth())}} })
	r.CollectFunc("starmesh_queue_capacity",
		"Admission queue capacity (the configured depth; recovered backlog rides above it).",
		obs.TypeGauge, nil,
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.queueCap)}} })

	// Tenancy.
	m.tenantAdmittedVec = r.Counter("starmesh_tenant_admitted_total",
		"Jobs admitted, by tenant.", "tenant")
	m.tenantRejectedVec = r.Counter("starmesh_tenant_rejected_total",
		"Submissions rejected, by tenant and reason (rate_limited, queue_full, invalid_spec, draining).",
		"tenant", "reason")
	m.tenantWaitVec = r.Histogram("starmesh_tenant_queue_wait_seconds",
		"Time jobs spent queued before a worker claimed them, by tenant.", nil, "tenant")
	m.tenantPreempts = r.Counter("starmesh_jobs_preempted_total",
		"Running jobs bounced back to their tenant queue by a higher-priority submission.")
	r.CollectFunc("starmesh_tenant_queue_depth",
		"Jobs waiting in the scheduler, by tenant (backlogged tenants only).",
		obs.TypeGauge, []string{"tenant"},
		func() []obs.Sample {
			depths := s.sched.depths()
			out := make([]obs.Sample, 0, len(depths))
			for name, n := range depths {
				out = append(out, obs.Sample{LabelValues: []string{name}, Value: float64(n)})
			}
			return out
		})

	// Pools: builds/reuses/occupancy sampled from the pool counters.
	r.CollectFunc("starmesh_pool_builds_total",
		"Machines built by each shape's pool (checkout misses).", obs.TypeCounter, []string{"shape"},
		func() []obs.Sample {
			return poolSamples(s.pools, func(p PoolStats) float64 { return float64(p.Builds) })
		})
	r.CollectFunc("starmesh_pool_reuses_total",
		"Checkouts served from idle pooled machines.", obs.TypeCounter, []string{"shape"},
		func() []obs.Sample {
			return poolSamples(s.pools, func(p PoolStats) float64 { return float64(p.Reuses) })
		})
	r.CollectFunc("starmesh_pool_idle",
		"Idle machines parked in each shape's pool.", obs.TypeGauge, []string{"shape"},
		func() []obs.Sample { return poolSamples(s.pools, func(p PoolStats) float64 { return float64(p.Idle) }) })
	r.CollectFunc("starmesh_pool_in_use",
		"Machines checked out and running jobs, per shape.", obs.TypeGauge, []string{"shape"},
		func() []obs.Sample {
			return poolSamples(s.pools, func(p PoolStats) float64 { return float64(p.InUse) })
		})
	m.checkoutWaitSeconds = r.Histogram("starmesh_pool_checkout_wait_seconds",
		"Time jobs waited for a machine (includes build time on a miss), by shape.", nil, "shape")

	// Watch streams.
	r.CollectFunc("starmesh_watch_subscribers",
		"Active watch-stream subscriptions.", obs.TypeGauge, nil,
		func() []obs.Sample {
			subs, _ := s.store.watchStats()
			return []obs.Sample{{Value: float64(subs)}}
		})
	r.CollectFunc("starmesh_watch_drops_total",
		"Transition snapshots dropped from full watch subscriber channels.", obs.TypeCounter, nil,
		func() []obs.Sample {
			_, drops := s.store.watchStats()
			return []obs.Sample{{Value: float64(drops)}}
		})

	// HTTP.
	m.httpRequests = r.Counter("starmesh_http_requests_total",
		"HTTP requests served, by route pattern, method and status code.", "route", "method", "code")
	m.httpRequestSeconds = r.Histogram("starmesh_http_request_seconds",
		"HTTP request latency, by route pattern.", nil, "route")
	m.httpInFlight = r.Gauge("starmesh_http_in_flight",
		"HTTP requests currently being served.").With()

	// Engine.
	m.engineRoutes = r.Counter("starmesh_engine_unit_routes_total",
		"Unit routes executed by the job machines (closure path and plan replays).").With()
	m.engineConflicts = r.Counter("starmesh_engine_conflicts_total",
		"Receive conflicts observed by the job machines.").With()
	m.engineReplays = r.Counter("starmesh_engine_replays_total",
		"Compiled plan replays executed by the job machines.").With()
	m.engineReplaySeconds = r.Histogram("starmesh_engine_replay_seconds",
		"Wall time of compiled plan replays.", nil).With()

	// WAL. The histograms observe live; the counters the durable store
	// already keeps (records, snapshots, recovery, degraded) bridge
	// from Durability at scrape time — a memory store reports an
	// all-zero family rather than omitting it, so dashboards never see
	// a family appear out of nowhere after -store-dir is enabled.
	m.wal.appendSeconds = r.Histogram("starmesh_wal_append_seconds",
		"WAL record append (write syscall) latency.", nil).With()
	m.wal.syncSeconds = r.Histogram("starmesh_wal_sync_seconds",
		"WAL fsync latency (snapshot files are synced before the atomic rename).", nil).With()
	m.wal.snapshotSeconds = r.Histogram("starmesh_wal_snapshot_seconds",
		"Duration of snapshot+compaction cycles.", nil).With()
	m.wal.appendBytes = r.Counter("starmesh_wal_append_bytes_total",
		"Bytes appended to the WAL (framed records).").With()
	r.CollectFunc("starmesh_wal_appends_total",
		"WAL records appended since the store opened.", obs.TypeCounter, nil,
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.store.durability().WALRecords)}}
		})
	r.CollectFunc("starmesh_wal_snapshots_total",
		"Snapshot+compaction cycles since the store opened.", obs.TypeCounter, nil,
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.store.durability().Snapshots)}}
		})
	r.CollectFunc("starmesh_wal_recovered_total",
		"Jobs settled by boot-time crash recovery, by outcome (requeued, reexecuted, canceled).",
		obs.TypeCounter, []string{"outcome"},
		func() []obs.Sample {
			d := s.store.durability()
			return []obs.Sample{
				{LabelValues: []string{"requeued"}, Value: float64(d.RecoveredQueued)},
				{LabelValues: []string{"reexecuted"}, Value: float64(d.ReexecutedRunning)},
				{LabelValues: []string{"canceled"}, Value: float64(d.CanceledAtRecovery)},
			}
		})
	r.CollectFunc("starmesh_wal_degraded",
		"1 when the WAL has degraded to memory-only after a write failure, else 0.",
		obs.TypeGauge, nil,
		func() []obs.Sample {
			v := 0.0
			if s.store.durability().Degraded != "" {
				v = 1
			}
			return []obs.Sample{{Value: v}}
		})

	m.finishedHandles = make(map[finishKey]obs.Counter)
	m.admittedHandles = make(map[string]obs.Counter)
	m.rejectedHandles = make(map[rejectKey]obs.Counter)
	m.tenantWaitHandles = make(map[string]obs.Histogram)

	return m
}

// finishKey identifies one resolved jobs_finished series.
type finishKey struct{ status, kind, tenant string }

// rejectKey identifies one resolved tenant_rejected series.
type rejectKey struct{ tenant, reason string }

// finished resolves the (status, kind, tenant) finish counter,
// cached so the store's finish hook allocates nothing after the
// first job of each combination.
func (m *serveMetrics) finished(status Status, kind, tenant string) obs.Counter {
	k := finishKey{string(status), kind, tenant}
	m.handleMu.RLock()
	c, ok := m.finishedHandles[k]
	m.handleMu.RUnlock()
	if ok {
		return c
	}
	c = m.jobsFinished.With(k.status, k.kind, k.tenant)
	m.handleMu.Lock()
	m.finishedHandles[k] = c
	m.handleMu.Unlock()
	return c
}

// tenantAdmitted resolves a tenant's admission counter (cached).
func (m *serveMetrics) tenantAdmitted(tenant string) obs.Counter {
	m.handleMu.RLock()
	c, ok := m.admittedHandles[tenant]
	m.handleMu.RUnlock()
	if ok {
		return c
	}
	c = m.tenantAdmittedVec.With(tenant)
	m.handleMu.Lock()
	m.admittedHandles[tenant] = c
	m.handleMu.Unlock()
	return c
}

// tenantRejected resolves a (tenant, reason) rejection counter
// (cached).
func (m *serveMetrics) tenantRejected(tenant, reason string) obs.Counter {
	k := rejectKey{tenant, reason}
	m.handleMu.RLock()
	c, ok := m.rejectedHandles[k]
	m.handleMu.RUnlock()
	if ok {
		return c
	}
	c = m.tenantRejectedVec.With(tenant, reason)
	m.handleMu.Lock()
	m.rejectedHandles[k] = c
	m.handleMu.Unlock()
	return c
}

// tenantQueueWait resolves a tenant's queue-wait histogram (cached).
func (m *serveMetrics) tenantQueueWait(tenant string) obs.Histogram {
	m.handleMu.RLock()
	h, ok := m.tenantWaitHandles[tenant]
	m.handleMu.RUnlock()
	if ok {
		return h
	}
	h = m.tenantWaitVec.With(tenant)
	m.handleMu.Lock()
	m.tenantWaitHandles[tenant] = h
	m.handleMu.Unlock()
	return h
}

// poolSamples maps every pool's stats through one field selector.
func poolSamples(ps *poolSet, field func(PoolStats) float64) []obs.Sample {
	stats := ps.stats()
	out := make([]obs.Sample, 0, len(stats))
	for _, p := range stats {
		out = append(out, obs.Sample{LabelValues: []string{p.Shape}, Value: field(p)})
	}
	return out
}

// observeHTTP records one served request.
func (m *serveMetrics) observeHTTP(route, method string, code int, d time.Duration) {
	if m == nil {
		return
	}
	m.httpRequests.With(route, method, strconv.Itoa(code)).Inc()
	m.httpRequestSeconds.With(route).Observe(d.Seconds())
}

// engineCollector adapts the metrics to simd.Collector. Pooled
// machines on concurrent jobs share it; obs instruments are atomic,
// so no extra locking is needed.
type engineCollector struct {
	routes        obs.Counter
	conflicts     obs.Counter
	replays       obs.Counter
	replaySeconds obs.Histogram
	// replayNs and replayRoutes additionally accumulate raw totals for
	// the /v1/metrics-independent snapshot used by tests and loadgen.
	replayNs     atomic.Int64
	replayRoutes atomic.Int64
}

func newEngineCollector(m *serveMetrics) *engineCollector {
	return &engineCollector{
		routes:        m.engineRoutes,
		conflicts:     m.engineConflicts,
		replays:       m.engineReplays,
		replaySeconds: m.engineReplaySeconds,
	}
}

func (c *engineCollector) RecordRoutes(routes, conflicts int) {
	c.routes.Add(int64(routes))
	if conflicts > 0 {
		c.conflicts.Add(int64(conflicts))
	}
}

func (c *engineCollector) RecordReplay(d time.Duration, routes int) {
	c.replays.Inc()
	c.replaySeconds.Observe(d.Seconds())
	c.replayNs.Add(d.Nanoseconds())
	c.replayRoutes.Add(int64(routes))
}

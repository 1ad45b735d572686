// Metrics wiring: every instrument the service exports through
// GET /v1/metrics, in one place. Unlabeled instruments are resolved
// to their series once here; labeled ones are resolved with With at
// each call site, which allocates nothing once the series exists.
// State another subsystem already tracks (queue depth, running jobs,
// pool counters, watch subscriptions, WAL durability) bridges in
// through CollectFunc closures sampled at scrape time, costing those
// subsystems nothing between scrapes. No percentile is read from
// these histograms: /v1/stats reads its own from the store's
// log-bucket counts. docs/observability.md is the rendered catalog
// of everything registered here, held to it by
// TestMetricCatalogMatchesRegistry.
package serve

import (
	"strconv"
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

	// Tenancy.
	tenantAdmitted  *obs.CounterVec   // tenant
	tenantRejected  *obs.CounterVec   // tenant, reason
	tenantQueueWait *obs.HistogramVec // tenant
	tenantPreempts  *obs.CounterVec   // (no labels; preemptions are rare)

	// Pools.
	checkoutWaitSeconds *obs.HistogramVec // shape

	// HTTP.
	httpRequests       *obs.CounterVec   // route, method, code
	httpRequestSeconds *obs.HistogramVec // route
	httpInFlight       obs.Gauge

	// Engine (fed through the simd.Collector methods below).
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
		"Submissions rejected at admission, by reason (unauthorized, invalid_spec, rate_limited, draining, queue_full).", "reason")
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
	m.tenantAdmitted = r.Counter("starmesh_tenant_admitted_total",
		"Jobs admitted, by tenant.", "tenant")
	m.tenantRejected = r.Counter("starmesh_tenant_rejected_total",
		"Submissions rejected, by tenant and reason (rate_limited, queue_full, invalid_spec, draining).",
		"tenant", "reason")
	m.tenantQueueWait = r.Histogram("starmesh_tenant_queue_wait_seconds",
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

	return m
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

// RecordRoutes and RecordReplay make the metrics the machines'
// simd.Collector. Pooled machines on concurrent jobs share it; obs
// instruments are atomic, so no extra locking is needed.
func (m *serveMetrics) RecordRoutes(routes, conflicts int) {
	m.engineRoutes.Add(int64(routes))
	if conflicts > 0 {
		m.engineConflicts.Add(int64(conflicts))
	}
}

func (m *serveMetrics) RecordReplay(d time.Duration, _ int) {
	m.engineReplays.Inc()
	m.engineReplaySeconds.Observe(d.Seconds())
}

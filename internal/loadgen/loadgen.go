// Package loadgen is the closed-loop load driver behind the serve,
// tenants and cluster benches (BENCH_serve.json, BENCH_tenants.json,
// BENCH_cluster.json), with the one standalone-reference oracle all
// three check every job result against.
// Every byte of traffic goes through the public typed client
// (starmesh/client) against the /v1 routes — submission with 429
// backpressure honored, completion observed over the watch stream —
// so the measured throughput covers admission, scheduling, pooling,
// the HTTP layer and the client itself: exactly what a real caller
// pays.
package loadgen

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"time"

	"starmesh/client"
	"starmesh/internal/exptab"
	"starmesh/internal/obs"
	"starmesh/internal/serve"
	"starmesh/internal/simd"
	"starmesh/internal/workload"
)

// JobSpec, Job and ScenarioResult are the service's own types.
type (
	JobSpec        = serve.JobSpec
	Job            = serve.Job
	ScenarioResult = serve.ScenarioResult
)

// LoadConfig shapes one serve load run.
type LoadConfig struct {
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// JobsPerClient is how many jobs each client completes.
	JobsPerClient int
	// Specs are assigned round-robin across the job stream, so every
	// spec runs repeatedly and on every mode.
	Specs []JobSpec
	// Reps is how many times RunComparison measures each mode,
	// interleaved (pooled, unpooled, durable, bare, pooled, …) so host
	// drift hits every mode equally; the best rep per mode is kept —
	// run-to-run noise on a busy host dwarfs the real deltas, and the
	// fastest run is the closest estimate of each mode's true cost
	// (0 = 1). The parity check covers every rep.
	Reps int
}

// LoadResult is one load run's measurement.
type LoadResult struct {
	Jobs      int   `json:"jobs"`
	Failed    int   `json:"failed"`
	Rejected  int   `json:"rejected_429"`
	ElapsedNs int64 `json:"elapsed_ns"`
	// ThroughputJobsPerSec is completed jobs over the run's wall
	// clock, the headline number of every comparison.
	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
	// Client-observed latency percentiles (submit → terminal status,
	// watch stream included).
	LatencyP50Ns int64 `json:"latency_p50_ns"`
	LatencyP99Ns int64 `json:"latency_p99_ns"`
	// QueueWaitP99Ns is the service-side p99 queue wait (submit →
	// claim), scraped from /v1/metrics after the run — the scheduler's
	// own view of the admission backlog, as opposed to the client-side
	// LatencyP99Ns which also includes execution and the watch stream.
	// Zero when the service ran without metrics (NoObs).
	QueueWaitP99Ns int64 `json:"queue_wait_p99_ns"`
	// BySpec holds, per normalized spec name, the result every done
	// job of that spec returned; the fold fails if two runs of one
	// spec ever disagree (the service determinism contract).
	BySpec map[string]ScenarioResult `json:"-"`
}

// ScrapeQueueWaitP99 reads the service's /v1/metrics exposition and
// returns the p99 of starmesh_queue_wait_seconds (0 with an error if
// the exposition is unreachable, invalid, or missing the histogram).
func ScrapeQueueWaitP99(ctx context.Context, baseURL string) (time.Duration, error) {
	text, err := client.New(baseURL).Metrics(ctx)
	if err != nil {
		return 0, err
	}
	// Validate before use: the bench doubles as CI's exposition-format
	// smoke — a malformed /v1/metrics fails the serve job here.
	if err := obs.Validate(text); err != nil {
		return 0, fmt.Errorf("loadgen: /v1/metrics failed exposition validation: %w", err)
	}
	sc, err := obs.ParseText(text)
	if err != nil {
		return 0, fmt.Errorf("loadgen: parsing /v1/metrics: %w", err)
	}
	q, ok := sc.HistogramQuantile("starmesh_queue_wait_seconds", nil, 0.99)
	if !ok {
		return 0, fmt.Errorf("loadgen: /v1/metrics has no starmesh_queue_wait_seconds histogram")
	}
	return time.Duration(q * float64(time.Second)), nil
}

// RunLoad drives the API at baseURL closed-loop with one typed
// client per closed-loop client and folds the run.
func RunLoad(baseURL string, cfg LoadConfig) (LoadResult, error) {
	r, err := drive(closedLoop{
		clients: cfg.Clients,
		dial: func(_ int, onRetry func()) (target, error) {
			return client.New(baseURL, pressure(onRetry)...), nil
		},
		specs: cfg.Specs,
		jobs:  cfg.JobsPerClient,
	})
	if err != nil {
		return LoadResult{}, err
	}
	return fold(r.outcomes, r.elapsed)
}

// target is what one closed-loop client drives: *client.Client and
// *client.ClusterClient both satisfy it.
type target interface {
	Submit(ctx context.Context, spec JobSpec) (Job, error)
	Await(ctx context.Context, id string) (Job, error)
}

// outcome is one job as its closed-loop client saw it.
type outcome struct {
	client   int           // index of the client that ran the job
	job      Job           // final server snapshot; its Spec is normalized
	latency  time.Duration // submit → terminal status, watch stream included
	rejected int           // 429 retries the submission took
	finished time.Time     // when the client saw the terminal status
}

// closedLoop shapes one run of the driver. Exactly one of jobs and
// until stops it.
type closedLoop struct {
	clients int
	// dial builds client c's target. onRetry must be called once per
	// 429 retry the target takes; pressure(onRetry) wires it into a
	// typed client.
	dial func(c int, onRetry func()) (target, error)
	// Job j of client c runs specs[(c*jobs+j) % len(specs)], so every
	// spec runs repeatedly and on every client.
	specs []JobSpec
	jobs  int           // count stop: each client completes this many jobs
	until time.Duration // deadline stop: no client starts a job after this much of the run
}

// run is what the driver measured: every outcome, ordered by client
// and then by job, and the run's wall clock.
type run struct {
	outcomes []outcome
	start    time.Time
	elapsed  time.Duration
}

// pollInterval is the 429 retry cadence: the benches want admission
// pressure, not idle waiting.
const pollInterval = 200 * time.Microsecond

// pressure is the closed-loop retry policy of every bench client: a
// 429 is retried forever (admission must eventually win), at
// pollInterval rather than the server's 1s Retry-After hint, and
// reported to onRetry.
func pressure(onRetry func()) []client.Option {
	return []client.Option{
		client.WithMaxRetries(-1),
		client.WithBackpressureHook(func(time.Duration) { onRetry() }),
		client.WithSleep(func(ctx context.Context, _ time.Duration) error {
			time.Sleep(pollInterval)
			return ctx.Err()
		}),
	}
}

// drive runs the closed loop: each client submits a job, awaits its
// terminal status, and moves on until its stop condition holds. The
// first error, in client order, ends the run.
func drive(cfg closedLoop) (run, error) {
	if cfg.clients < 1 || len(cfg.specs) == 0 || (cfg.jobs < 1) == (cfg.until <= 0) {
		return run{}, fmt.Errorf("loadgen: a closed loop needs clients, specs and one stop: a job count or a deadline")
	}
	perClient := make([][]outcome, cfg.clients)
	errs := make([]error, cfg.clients)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(cfg.until)
	var wg sync.WaitGroup
	for c := range cfg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rejected := 0
			t, err := cfg.dial(c, func() { rejected++ })
			if err != nil {
				errs[c] = fmt.Errorf("loadgen: client %d: %w", c, err)
				return
			}
			for j := 0; cfg.jobs < 1 || j < cfg.jobs; j++ {
				t0 := time.Now()
				if cfg.until > 0 && !t0.Before(deadline) {
					return
				}
				before := rejected
				job, err := t.Submit(ctx, cfg.specs[(c*cfg.jobs+j)%len(cfg.specs)])
				if err == nil {
					job, err = t.Await(ctx, job.ID)
				}
				if err == nil && job.Status == serve.StatusDone && job.Result == nil {
					err = fmt.Errorf("job %s done without a result", job.ID)
				}
				if err != nil {
					errs[c] = fmt.Errorf("loadgen: client %d: %w", c, err)
					return
				}
				now := time.Now()
				perClient[c] = append(perClient[c], outcome{
					client: c, job: job, latency: now.Sub(t0),
					rejected: rejected - before, finished: now,
				})
			}
		}()
	}
	wg.Wait()
	out := run{start: start, elapsed: time.Since(start), outcomes: slices.Concat(perClient...)}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// fold folds a run's outcomes into a LoadResult: counts, 429
// retries, throughput and client-latency percentiles, and the
// per-spec results. It fails if two jobs of one spec returned
// different results — the service's determinism contract.
func fold(outcomes []outcome, elapsed time.Duration) (LoadResult, error) {
	res := LoadResult{
		Jobs:      len(outcomes),
		ElapsedNs: elapsed.Nanoseconds(),
		BySpec:    make(map[string]ScenarioResult),
	}
	latencies := make([]time.Duration, 0, len(outcomes))
	for _, o := range outcomes {
		res.Rejected += o.rejected
		latencies = append(latencies, o.latency)
		if o.job.Status != serve.StatusDone {
			res.Failed++
			continue
		}
		// The server stores the normalized spec (defaults such as
		// dist="uniform" applied), the form the oracle is keyed by.
		key := o.job.Spec.Name()
		got := *o.job.Result
		got.Name, got.ElapsedNs = "", 0
		if prev, ok := res.BySpec[key]; ok && prev != got {
			return res, fmt.Errorf("loadgen: spec %s returned diverging results: %+v vs %+v", key, prev, got)
		}
		res.BySpec[key] = got
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.ThroughputJobsPerSec = float64(res.Jobs-res.Failed) / secs
	}
	p50, p99 := percentiles(latencies)
	res.LatencyP50Ns, res.LatencyP99Ns = p50.Nanoseconds(), p99.Nanoseconds()
	return res, nil
}

// percentiles returns the exact nearest-rank p50 and p99 of samples
// (the ceil(p·n/100)-th smallest), sorting samples in place.
func percentiles(samples []time.Duration) (p50, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	slices.Sort(samples)
	rank := func(p int) time.Duration {
		return samples[max((p*len(samples)+99)/100, 1)-1]
	}
	return rank(50), rank(99)
}

// oracle holds the standalone reference result of every bench spec,
// keyed by normalized spec name: the parity reference of every run.
type oracle map[string]ScenarioResult

// newOracle runs every distinct spec standalone once. The benches
// build it before any measured run, so it also warms the
// process-wide SharedPlans cache and no measured mode pays plan
// compilation another inherits (machine construction, route tables
// and plan binding remain per-machine costs — the costs pooling
// amortizes).
func newOracle(specs []JobSpec, opts ...simd.Option) (oracle, error) {
	want := make(oracle, len(specs))
	for _, spec := range specs {
		norm, err := spec.Normalized()
		if err != nil {
			return nil, err
		}
		if _, seen := want[norm.Name()]; seen {
			continue // a spec's name determines its result; fold enforces that
		}
		sc, err := workload.ScenarioFor(norm, opts...)
		if err != nil {
			return nil, err
		}
		res, err := sc.Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("standalone %s: %w", sc.Name, err)
		}
		res.Name, res.ElapsedNs = "", 0
		want[norm.Name()] = res
	}
	return want, nil
}

// check verifies a run's per-spec results: every reference spec
// completed, bit-identical (unit routes, conflicts, self-check) to
// its standalone run.
func (o oracle) check(mode string, bySpec map[string]ScenarioResult) error {
	for name, want := range o {
		got, ok := bySpec[name]
		if !ok {
			return fmt.Errorf("loadgen: %s run never completed spec %s", mode, name)
		}
		if got != want {
			return fmt.Errorf("loadgen: %s result for %s diverged from standalone run: %+v vs %+v", mode, name, got, want)
		}
	}
	return nil
}

// Comparison is the pooled-vs-unpooled-vs-durable-vs-bare
// measurement plus the parity verdict against standalone scenario
// runs.
type Comparison struct {
	Pooled   LoadResult `json:"pooled"`
	Unpooled LoadResult `json:"unpooled"`
	// Durable re-runs the pooled configuration on the WAL-backed job
	// store (a throwaway directory): the throughput delta against
	// Pooled is what durability costs — every transition appended and
	// checksummed on the submit/claim/finish path.
	Durable LoadResult `json:"durable"`
	// Bare re-runs the pooled configuration with metrics disabled
	// (NoObs): the throughput delta against Pooled is what the
	// observability layer costs — every counter bump, histogram
	// observation and trace append on the hot path.
	Bare LoadResult `json:"bare"`
	// DurableWALRecords and DurableSnapshots are the WAL counters the
	// durable run accumulated — evidence the log was actually on.
	DurableWALRecords int64 `json:"durable_wal_records"`
	DurableSnapshots  int64 `json:"durable_snapshots"`
	// Pool counters from the pooled service after the run.
	PoolBuilds int64 `json:"pool_builds"`
	PoolReuses int64 `json:"pool_reuses"`
	// UnpooledBuilds counts machine constructions in build-per-job
	// mode (one per job touching a machine).
	UnpooledBuilds int64 `json:"unpooled_builds"`
	// ParityOK means every job result — pooled, unpooled, durable and
	// bare — was bit-identical (unit routes, conflicts, self-check) to
	// a standalone run of the same spec.
	ParityOK bool `json:"parity_ok"`
}

// WALOverheadFrac is the fraction of pooled throughput the WAL costs
// (0.07 = durable runs 7% slower; negative = noise in durability's
// favor).
func (c *Comparison) WALOverheadFrac() float64 {
	if c.Pooled.ThroughputJobsPerSec <= 0 {
		return 0
	}
	return 1 - c.Durable.ThroughputJobsPerSec/c.Pooled.ThroughputJobsPerSec
}

// ObsOverheadFrac is the fraction of bare throughput the metrics and
// trace instrumentation cost (0.03 = the instrumented pooled run is
// 3% slower than the same run with NoObs; negative = noise in the
// instrumented run's favor).
func (c *Comparison) ObsOverheadFrac() float64 {
	if c.Bare.ThroughputJobsPerSec <= 0 {
		return 0
	}
	return 1 - c.Pooled.ThroughputJobsPerSec/c.Bare.ThroughputJobsPerSec
}

// RunComparison measures the same closed-loop load in four modes —
// pooled, build-per-job (NoPool), pooled on the WAL-durable store and
// pooled without instrumentation (NoObs) — over a fresh in-process
// HTTP server each, and checks every run against the oracle.
func RunComparison(svcCfg serve.Config, load LoadConfig) (Comparison, error) {
	var cmp Comparison
	opts, err := svcCfg.EngineOptions()
	if err != nil {
		return cmp, err
	}
	ref, err := newOracle(load.Specs, opts...)
	if err != nil {
		return cmp, err
	}

	measure := func(mode string, cfg serve.Config, wal bool) (LoadResult, serve.Stats, error) {
		if wal {
			// A throwaway directory, fresh per rep, so no rep pays
			// recovery for the previous one.
			dir, err := os.MkdirTemp("", "starmesh-bench-wal-")
			if err != nil {
				return LoadResult{}, serve.Stats{}, err
			}
			defer os.RemoveAll(dir)
			cfg.StoreDir = dir
		}
		svc, err := serve.NewService(cfg)
		if err != nil {
			return LoadResult{}, serve.Stats{}, err
		}
		ts := httptest.NewServer(svc.Handler())
		defer func() {
			ts.Close()
			svc.Drain()
		}()
		res, err := RunLoad(ts.URL, load)
		if err == nil && !cfg.NoObs {
			// The scrape happens after the run's clock stops, so it
			// never perturbs the measurement it reports on.
			var p99 time.Duration
			p99, err = ScrapeQueueWaitP99(context.Background(), ts.URL)
			res.QueueWaitP99Ns = p99.Nanoseconds()
		}
		if err == nil {
			err = ref.check(mode, res.BySpec)
		}
		return res, svc.Stats(), err
	}

	unpooled, bare := svcCfg, svcCfg
	unpooled.NoPool = true
	bare.NoObs = true
	var pooledStats, unpooledStats, durableStats serve.Stats
	modes := []struct {
		name  string
		cfg   serve.Config
		wal   bool
		best  *LoadResult
		stats *serve.Stats
	}{
		{"pooled", svcCfg, false, &cmp.Pooled, &pooledStats},
		{"unpooled", unpooled, false, &cmp.Unpooled, &unpooledStats},
		{"durable", svcCfg, true, &cmp.Durable, &durableStats},
		{"bare", bare, false, &cmp.Bare, new(serve.Stats)},
	}
	for r := range max(load.Reps, 1) {
		for _, m := range modes {
			res, stats, err := measure(m.name, m.cfg, m.wal)
			if err != nil {
				return cmp, fmt.Errorf("%s run: %w", m.name, err)
			}
			if r == 0 || res.ThroughputJobsPerSec > m.best.ThroughputJobsPerSec {
				*m.best, *m.stats = res, stats
			}
		}
	}
	cmp.DurableWALRecords = durableStats.Durability.WALRecords
	cmp.DurableSnapshots = durableStats.Durability.Snapshots
	for _, p := range pooledStats.Pools {
		cmp.PoolBuilds += p.Builds
		cmp.PoolReuses += p.Reuses
	}
	for _, p := range unpooledStats.Pools {
		cmp.UnpooledBuilds += p.Builds
	}
	cmp.ParityOK = true
	return cmp, nil
}

// BenchRecord is the schema of BENCH_serve.json: closed-loop service
// throughput and latency with per-shape machine pooling on vs off,
// on the WAL-durable store and without instrumentation, with parity
// against standalone runs asserted before any timing is reported.
// The load flows through the typed client (API field).
type BenchRecord struct {
	exptab.Header
	API           string `json:"api"`
	Workers       int    `json:"workers"`
	Queue         int    `json:"queue"`
	Engine        string `json:"engine"`
	Plans         bool   `json:"plans"`
	Clients       int    `json:"clients"`
	JobsPerClient int    `json:"jobs_per_client"`
	Specs         int    `json:"specs"`
	Reps          int    `json:"reps"`

	PooledJobs         int     `json:"pooled_jobs"`
	PooledNs           int64   `json:"pooled_ns"`
	PooledThroughput   float64 `json:"pooled_jobs_per_sec"`
	PooledP50Ns        int64   `json:"pooled_latency_p50_ns"`
	PooledP99Ns        int64   `json:"pooled_latency_p99_ns"`
	UnpooledJobs       int     `json:"unpooled_jobs"`
	UnpooledNs         int64   `json:"unpooled_ns"`
	UnpooledThroughput float64 `json:"unpooled_jobs_per_sec"`
	UnpooledP50Ns      int64   `json:"unpooled_latency_p50_ns"`
	UnpooledP99Ns      int64   `json:"unpooled_latency_p99_ns"`

	// The durable (WAL-on, pooled) measurement and its overhead
	// against the in-memory pooled run — the number the serve
	// experiment gates at 10%.
	DurableJobs       int     `json:"durable_jobs"`
	DurableNs         int64   `json:"durable_ns"`
	DurableThroughput float64 `json:"durable_jobs_per_sec"`
	DurableP50Ns      int64   `json:"durable_latency_p50_ns"`
	DurableP99Ns      int64   `json:"durable_latency_p99_ns"`
	DurableWALRecords int64   `json:"durable_wal_records"`
	DurableSnapshots  int64   `json:"durable_snapshots"`
	WALOverheadFrac   float64 `json:"wal_overhead_frac"`

	// The bare (NoObs, pooled) measurement and the observability
	// overhead it exposes — the number the serve experiment gates at
	// 5%. PooledQueueWaitP99Ns is the scheduler-side p99 queue wait
	// scraped from the instrumented pooled run's /v1/metrics.
	BareJobs             int     `json:"bare_jobs"`
	BareNs               int64   `json:"bare_ns"`
	BareThroughput       float64 `json:"bare_jobs_per_sec"`
	ObsOverheadFrac      float64 `json:"obs_overhead_frac"`
	PooledQueueWaitP99Ns int64   `json:"pooled_queue_wait_p99_ns"`

	SpeedupPooled  float64 `json:"speedup_pooled_vs_unpooled"`
	PoolBuilds     int64   `json:"pool_builds"`
	PoolReuses     int64   `json:"pool_reuses"`
	UnpooledBuilds int64   `json:"unpooled_builds"`
	ParityOK       bool    `json:"parity_ok"`
}

// NewBenchRecord folds a comparison into the record schema. The
// reported workers/queue/engine come from the config's effective
// defaults, so the record always describes the configuration the
// service actually ran.
func NewBenchRecord(svcCfg serve.Config, load LoadConfig, cmp Comparison) BenchRecord {
	eff := svcCfg.Effective()
	rec := BenchRecord{
		Header:             exptab.Header{Benchmark: "serve-closed-loop-pooled-vs-unpooled-vs-durable"},
		API:                "v1-typed-client-watch",
		Workers:            eff.Workers,
		Queue:              eff.Queue,
		Engine:             eff.Engine,
		Plans:              !svcCfg.NoPlans,
		Clients:            load.Clients,
		JobsPerClient:      load.JobsPerClient,
		Specs:              len(load.Specs),
		Reps:               max(load.Reps, 1),
		PooledJobs:         cmp.Pooled.Jobs,
		PooledNs:           cmp.Pooled.ElapsedNs,
		PooledThroughput:   cmp.Pooled.ThroughputJobsPerSec,
		PooledP50Ns:        cmp.Pooled.LatencyP50Ns,
		PooledP99Ns:        cmp.Pooled.LatencyP99Ns,
		UnpooledJobs:       cmp.Unpooled.Jobs,
		UnpooledNs:         cmp.Unpooled.ElapsedNs,
		UnpooledThroughput: cmp.Unpooled.ThroughputJobsPerSec,
		UnpooledP50Ns:      cmp.Unpooled.LatencyP50Ns,
		UnpooledP99Ns:      cmp.Unpooled.LatencyP99Ns,
		DurableJobs:        cmp.Durable.Jobs,
		DurableNs:          cmp.Durable.ElapsedNs,
		DurableThroughput:  cmp.Durable.ThroughputJobsPerSec,
		DurableP50Ns:       cmp.Durable.LatencyP50Ns,
		DurableP99Ns:       cmp.Durable.LatencyP99Ns,
		DurableWALRecords:  cmp.DurableWALRecords,
		DurableSnapshots:   cmp.DurableSnapshots,
		WALOverheadFrac:    cmp.WALOverheadFrac(),
		BareJobs:           cmp.Bare.Jobs,
		BareNs:             cmp.Bare.ElapsedNs,
		BareThroughput:     cmp.Bare.ThroughputJobsPerSec,
		ObsOverheadFrac:    cmp.ObsOverheadFrac(),

		PooledQueueWaitP99Ns: cmp.Pooled.QueueWaitP99Ns,
		PoolBuilds:           cmp.PoolBuilds,
		PoolReuses:           cmp.PoolReuses,
		UnpooledBuilds:       cmp.UnpooledBuilds,
		ParityOK:             cmp.ParityOK,
	}
	if cmp.Unpooled.ThroughputJobsPerSec > 0 {
		rec.SpeedupPooled = cmp.Pooled.ThroughputJobsPerSec / cmp.Unpooled.ThroughputJobsPerSec
	}
	return rec
}

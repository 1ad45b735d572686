// The multi-tenant fairness harness behind BENCH_tenants.json: one
// hot tenant and several light tenants drive the same service
// closed-loop through per-tenant API keys, and the harness measures
// whether the deficit-round-robin scheduler actually delivered
// weight-proportional throughput and kept the light tenants' queue
// waits bounded while the hot tenant flooded the queue.
//
// Two phases, each against a fresh service:
//
//   - baseline: the light tenants run alone. Their queue-wait p99 is
//     the "solo" reference — what a light tenant experiences when no
//     one is hogging the queue.
//   - contended: the hot tenant joins with several times the client
//     count. Under a single FIFO its backlog would multiply every
//     light job's wait by the hot tenant's queue share; under WFQ a
//     light tenant's wait grows only by the service-share shift
//     (total weight / light weight), which the CI gate bounds at 2x.
package loadgen

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"time"

	"starmesh/client"
	"starmesh/internal/exptab"
	"starmesh/internal/obs"
	"starmesh/internal/serve"
)

// TenantClass is one tenant's traffic shape in the fairness run.
type TenantClass struct {
	// Name and Key identify the tenant (Key is what the clients send
	// as X-API-Key).
	Name string `json:"name"`
	Key  string `json:"key"`
	// Weight is the tenant's fair-queueing weight.
	Weight int `json:"weight"`
	// Clients is how many concurrent closed-loop clients the tenant
	// runs.
	Clients int `json:"clients"`
}

// FairnessConfig shapes one fairness measurement.
type FairnessConfig struct {
	// Workers and Queue configure the service under test.
	Workers int
	Queue   int
	// Hot is the heavy tenant (contended phase only); Lights are the
	// background tenants present in both phases.
	Hot    TenantClass
	Lights []TenantClass
	// Spec is the job every client submits — one fixed spec, so every
	// job costs the same and throughput shares are comparable.
	Spec JobSpec
	// Phase is each phase's measurement window; jobs finishing within
	// the first Warmup of the window are discarded (queue fill-up
	// transient).
	Phase  time.Duration
	Warmup time.Duration
}

// TenantLoadResult is one tenant's view of one phase.
type TenantLoadResult struct {
	Tenant  string `json:"tenant"`
	Weight  int    `json:"weight"`
	Clients int    `json:"clients"`
	Jobs    int    `json:"jobs"`
	// Share is the tenant's fraction of the phase's completed jobs;
	// WantShare is its weight's fraction of the active total weight.
	Share     float64 `json:"share"`
	WantShare float64 `json:"want_share"`
	// Queue-wait percentiles from the jobs' own server-side WaitNs,
	// nearest-rank, read from log-bucket counts within 1%.
	QueueWaitP50Ns int64 `json:"queue_wait_p50_ns"`
	QueueWaitP99Ns int64 `json:"queue_wait_p99_ns"`
}

// PhaseResult is one phase's measurement.
type PhaseResult struct {
	ElapsedNs int64              `json:"elapsed_ns"`
	Jobs      int                `json:"jobs"`
	Tenants   []TenantLoadResult `json:"tenants"`
}

// FairnessResult is the two-phase fairness measurement.
type FairnessResult struct {
	Baseline  PhaseResult `json:"baseline"`
	Contended PhaseResult `json:"contended"`
	// BaselineLightP99Ns and ContendedLightP99Ns are, per phase, the
	// largest queue-wait p99 of any light tenant: the worst light
	// tenant is what the fairness promise protects. WaitRatio is
	// their quotient, the fairness headline the gate bounds.
	BaselineLightP99Ns  int64   `json:"baseline_light_p99_ns"`
	ContendedLightP99Ns int64   `json:"contended_light_p99_ns"`
	WaitRatio           float64 `json:"wait_ratio"`
	// MaxShareErr is the worst relative deviation of any tenant's
	// contended throughput share from its weight share.
	MaxShareErr float64 `json:"max_share_err"`
	// ParityOK means every job of both phases returned a result
	// bit-identical to a standalone run of the spec.
	ParityOK bool `json:"parity_ok"`
}

// RunFairness measures WFQ fairness: a baseline phase with the light
// tenants alone, then a contended phase with the hot tenant added.
// Each phase runs against a fresh in-process service so no backlog
// leaks across phases.
func RunFairness(cfg FairnessConfig) (FairnessResult, error) {
	var out FairnessResult
	if cfg.Hot.Clients < 1 || len(cfg.Lights) == 0 {
		return out, fmt.Errorf("loadgen: fairness config needs a hot tenant and light tenants")
	}
	if cfg.Phase <= 0 {
		cfg.Phase = 2 * time.Second
	}
	if cfg.Warmup < 0 || cfg.Warmup >= cfg.Phase {
		return out, fmt.Errorf("loadgen: warmup %v must be within the phase %v", cfg.Warmup, cfg.Phase)
	}

	tenants := make([]serve.TenantConfig, 0, len(cfg.Lights)+1)
	for _, tc := range append([]TenantClass{cfg.Hot}, cfg.Lights...) {
		tenants = append(tenants, serve.TenantConfig{
			Name: tc.Name, Key: tc.Key, Weight: tc.Weight,
		})
	}
	svcCfg := serve.Config{Workers: cfg.Workers, Queue: cfg.Queue, Tenants: tenants}
	ref, err := newOracle([]JobSpec{cfg.Spec})
	if err != nil {
		return out, err
	}

	baseline, err := runPhase(svcCfg, cfg, ref, cfg.Lights)
	if err != nil {
		return out, fmt.Errorf("baseline phase: %w", err)
	}
	contended, err := runPhase(svcCfg, cfg, ref, append([]TenantClass{cfg.Hot}, cfg.Lights...))
	if err != nil {
		return out, fmt.Errorf("contended phase: %w", err)
	}
	out.Baseline = baseline
	out.Contended = contended
	out.ParityOK = true

	lightNames := make(map[string]bool, len(cfg.Lights))
	for _, tc := range cfg.Lights {
		lightNames[tc.Name] = true
	}
	out.BaselineLightP99Ns = worstLightP99(baseline, lightNames)
	out.ContendedLightP99Ns = worstLightP99(contended, lightNames)
	if out.BaselineLightP99Ns > 0 {
		out.WaitRatio = float64(out.ContendedLightP99Ns) / float64(out.BaselineLightP99Ns)
	}
	for _, tr := range contended.Tenants {
		if tr.WantShare <= 0 {
			continue
		}
		err := tr.Share/tr.WantShare - 1
		if err < 0 {
			err = -err
		}
		if err > out.MaxShareErr {
			out.MaxShareErr = err
		}
	}
	return out, nil
}

// runPhase drives the given tenant classes against a fresh service
// for cfg.Phase, checks every job against the oracle, and folds the
// server-side queue waits of the jobs that finished after the warmup
// into a per-tenant result.
func runPhase(svcCfg serve.Config, cfg FairnessConfig, ref oracle, classes []TenantClass) (PhaseResult, error) {
	svc, err := serve.NewService(svcCfg)
	if err != nil {
		return PhaseResult{}, err
	}
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		svc.Drain()
	}()

	var owner []int // client index → index of its tenant class
	for i, tc := range classes {
		for range tc.Clients {
			owner = append(owner, i)
		}
	}
	r, err := drive(closedLoop{
		clients: len(owner),
		dial: func(c int, onRetry func()) (target, error) {
			return client.New(ts.URL, append(pressure(onRetry), client.WithAPIKey(classes[owner[c]].Key))...), nil
		},
		specs: []JobSpec{cfg.Spec},
		until: cfg.Phase,
	})
	if err != nil {
		return PhaseResult{}, err
	}
	all, err := fold(r.outcomes, r.elapsed)
	if err == nil {
		err = ref.check("tenants", all.BySpec)
	}
	if err != nil {
		return PhaseResult{}, err
	}

	totalWeight := 0
	for _, tc := range classes {
		totalWeight += tc.Weight
	}
	waits := make([]obs.LatencyCounts, len(classes))
	jobs := make([]int, len(classes))
	res := PhaseResult{ElapsedNs: r.elapsed.Nanoseconds()}
	for _, o := range r.outcomes {
		if o.finished.Sub(r.start) < cfg.Warmup {
			continue
		}
		i := owner[o.client]
		waits[i][obs.LatencyBucket(time.Duration(o.job.WaitNs))]++
		jobs[i]++
		res.Jobs++
	}
	for i, tc := range classes {
		tr := TenantLoadResult{
			Tenant: tc.Name, Weight: tc.Weight, Clients: tc.Clients,
			Jobs:      jobs[i],
			WantShare: float64(tc.Weight) / float64(totalWeight),
		}
		tr.QueueWaitP50Ns, tr.QueueWaitP99Ns = waits[i].Percentiles(jobs[i])
		if res.Jobs > 0 {
			tr.Share = float64(tr.Jobs) / float64(res.Jobs)
		}
		res.Tenants = append(res.Tenants, tr)
	}
	sort.Slice(res.Tenants, func(i, j int) bool { return res.Tenants[i].Tenant < res.Tenants[j].Tenant })
	return res, nil
}

// worstLightP99 is the largest queue-wait p99 among the light
// tenants of one phase.
func worstLightP99(ph PhaseResult, lights map[string]bool) int64 {
	var worst int64
	for _, tr := range ph.Tenants {
		if lights[tr.Tenant] && tr.QueueWaitP99Ns > worst {
			worst = tr.QueueWaitP99Ns
		}
	}
	return worst
}

// TenantBenchRecord is the schema of BENCH_tenants.json: the
// two-phase fairness measurement plus the gate inputs (light-tenant
// p99 wait ratio and weight-share fidelity).
type TenantBenchRecord struct {
	exptab.Header
	API     string `json:"api"`
	Workers int    `json:"workers"`
	Queue   int    `json:"queue"`

	Hot    TenantClass   `json:"hot"`
	Lights []TenantClass `json:"lights"`
	Spec   string        `json:"spec"`

	Result FairnessResult `json:"result"`

	// The gate verdicts as evaluated by the experiment (recorded so
	// the uploaded artifact is self-describing).
	WaitRatioLimit  float64 `json:"wait_ratio_limit"`
	ShareErrLimit   float64 `json:"share_err_limit"`
	GatesEnforced   bool    `json:"gates_enforced"`
	WaitRatioOK     bool    `json:"wait_ratio_ok"`
	ShareFairnessOK bool    `json:"share_fairness_ok"`
}

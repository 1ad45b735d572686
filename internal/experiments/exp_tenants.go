package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"starmesh/internal/exptab"
	"starmesh/internal/loadgen"
	"starmesh/internal/serve"
)

// Gate limits for the tenant fairness bench: under contention a
// light tenant's p99 queue wait may grow to at most twice its solo
// baseline (the theoretical WFQ shift here is total-weight /
// lights-only-weight = 5/3), and every tenant's throughput share
// must land within 15% of its weight share.
const (
	tenantWaitRatioLimit = 2.0
	tenantShareErrLimit  = 0.15
)

// TenantFairness measures the weighted-fair-queueing promise end to
// end: one hot tenant (weight 2, 8 closed-loop clients) floods the
// queue while three light tenants (weight 1, 3 clients each) keep
// working, all through per-tenant API keys on the v1 surface. Phase
// one runs the lights alone — their solo queue-wait p99 is the
// baseline. Phase two adds the hot tenant. Under the old single
// FIFO the hot backlog would stretch every light job's wait by the
// hot tenant's queue share (~3-4x here); under DRR the light
// tenants' wait grows only by the service-share shift (5/3) and
// throughput splits by weight. Every job's result is checked against
// a standalone run of the spec. With BENCH_DIR set the record lands
// in BENCH_DIR/BENCH_tenants.json and the experiment fails if the
// wait ratio exceeds 2x or any share deviates more than 15% from its
// weight.
func TenantFairness(w io.Writer) error {
	cfg := loadgen.FairnessConfig{
		// Two workers, not GOMAXPROCS: the fairness ratios depend on
		// the service share per tenant, so the bench pins the worker
		// count to keep the measurement comparable across hosts.
		Workers: 2,
		Queue:   64,
		Hot:     loadgen.TenantClass{Name: "hot", Key: "key-hot", Weight: 2, Clients: 8},
		Lights: []loadgen.TenantClass{
			{Name: "light-a", Key: "key-a", Weight: 1, Clients: 3},
			{Name: "light-b", Key: "key-b", Weight: 1, Clients: 3},
			{Name: "light-c", Key: "key-c", Weight: 1, Clients: 3},
		},
		// The spec must be heavy enough (~7ms of execution) that the
		// two workers saturate and a real backlog forms — only a
		// backlogged queue exercises DRR; with cheap jobs the queue
		// drains instantly and shares track client counts instead of
		// weights.
		Spec:   serve.JobSpec{Kind: serve.KindShear, Rows: 32, Cols: 32, Dist: "reversed", Seed: 7},
		Phase:  1500 * time.Millisecond,
		Warmup: 300 * time.Millisecond,
	}
	// BENCH_TENANTS_PHASE_MS shrinks the measurement window (the
	// experiment test suite sets it; CI's fairness job runs the full
	// default). Warmup scales with it.
	if ms := os.Getenv("BENCH_TENANTS_PHASE_MS"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n <= 0 {
			return fmt.Errorf("tenants: bad BENCH_TENANTS_PHASE_MS %q", ms)
		}
		cfg.Phase = time.Duration(n) * time.Millisecond
		cfg.Warmup = cfg.Phase / 5
	}
	res, err := loadgen.RunFairness(cfg)
	if err != nil {
		return err
	}

	printPhase := func(title string, ph loadgen.PhaseResult) {
		t := exptab.New(title,
			"tenant", "weight", "clients", "jobs", "share", "want", "wait-p50-ms", "wait-p99-ms")
		for _, tr := range ph.Tenants {
			t.Add(tr.Tenant, tr.Weight, tr.Clients, tr.Jobs,
				fmt.Sprintf("%.3f", tr.Share), fmt.Sprintf("%.3f", tr.WantShare),
				fmt.Sprintf("%.2f", float64(tr.QueueWaitP50Ns)/1e6),
				fmt.Sprintf("%.2f", float64(tr.QueueWaitP99Ns)/1e6))
		}
		t.Fprint(w)
		fmt.Fprintln(w)
	}
	printPhase(fmt.Sprintf("Tenant fairness, baseline: %d light tenants alone, %.1fs phase",
		len(cfg.Lights), cfg.Phase.Seconds()), res.Baseline)
	printPhase("Tenant fairness, contended: hot tenant added", res.Contended)
	fmt.Fprintf(w, "light-tenant queue-wait p99: solo %.2fms -> contended %.2fms (ratio %.2fx, limit %.1fx)\n",
		float64(res.BaselineLightP99Ns)/1e6, float64(res.ContendedLightP99Ns)/1e6,
		res.WaitRatio, tenantWaitRatioLimit)
	fmt.Fprintf(w, "worst throughput-share deviation from weight: %.1f%% (limit %.0f%%)\n",
		100*res.MaxShareErr, 100*tenantShareErrLimit)
	fmt.Fprintf(w, "parity vs standalone runs: %t\n", res.ParityOK)

	rec := loadgen.TenantBenchRecord{
		Header:          exptab.Header{Benchmark: "serve-multi-tenant-wfq-fairness"},
		API:             "v1-typed-client-api-key",
		Workers:         cfg.Workers,
		Queue:           cfg.Queue,
		Hot:             cfg.Hot,
		Lights:          cfg.Lights,
		Spec:            cfg.Spec.Name(),
		Result:          res,
		WaitRatioLimit:  tenantWaitRatioLimit,
		ShareErrLimit:   tenantShareErrLimit,
		GatesEnforced:   exptab.BenchDir() != "",
		WaitRatioOK:     res.WaitRatio <= tenantWaitRatioLimit,
		ShareFairnessOK: res.MaxShareErr <= tenantShareErrLimit,
	}
	if err := writeRecord(w, "BENCH_tenants.json", &rec); err != nil {
		return err
	}

	exptab.StepSummary("### Tenant fairness (WFQ)\n"+
		"| metric | value | limit |\n|---|---|---|\n"+
		"| light p99 wait ratio (contended/solo) | %.2fx | %.1fx |\n"+
		"| worst share deviation from weight | %.1f%% | %.0f%% |\n"+
		"| contended jobs | %d | — |",
		res.WaitRatio, tenantWaitRatioLimit,
		100*res.MaxShareErr, 100*tenantShareErrLimit, res.Contended.Jobs)

	return errors.Join(
		exptab.Gate(w, rec.WaitRatioOK,
			"tenants: light-tenant p99 wait grew %.2fx under contention (limit %.1fx; solo %.2fms, contended %.2fms)",
			res.WaitRatio, tenantWaitRatioLimit,
			float64(res.BaselineLightP99Ns)/1e6, float64(res.ContendedLightP99Ns)/1e6),
		exptab.Gate(w, rec.ShareFairnessOK,
			"tenants: throughput shares deviate %.1f%% from weights (limit %.0f%%)",
			100*res.MaxShareErr, 100*tenantShareErrLimit),
	)
}

package experiments

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"

	"starmesh/internal/exptab"
	"starmesh/internal/loadgen"
	"starmesh/internal/serve"
)

// clusterGateMinSpeedup is the gated floor on cluster-vs-single
// throughput for the 3-node bench: with one worker per node the
// ideal is ~3x, the spec mix's cost spread across the frozen ring
// makes ~2.9x reachable, and below 1.8x the sharding is not earning
// its routing layer.
const clusterGateMinSpeedup = 1.8

// clusterGateMinCPUs is the smallest host the speedup gate runs on.
const clusterGateMinCPUs = 4

// clusterSpecs is the bench workload: eight specs spanning eight
// pool shapes whose frozen-ring owners split the per-round execution
// cost roughly evenly across three nodes (~8.5ms each — sweep S_7 on
// n1; sort, faultroute, a longer S_6 sweep and pipeline on n2; shear,
// faultroute S_7 and permroute on n3). The balance is deterministic:
// the ring hash never changes, so neither does the assignment.
func clusterSpecs() []serve.JobSpec {
	return []serve.JobSpec{
		{Kind: serve.KindSweep, N: 7, Trials: 4, Seed: 3},
		{Kind: serve.KindSort, N: 5, Dist: "uniform", Seed: 42},
		{Kind: serve.KindFaultRoute, N: 6, Faults: 4, Pairs: 16, Seed: 9},
		{Kind: serve.KindSweep, N: 6, Trials: 48, Seed: 5},
		{Kind: serve.KindPipeline, N: 5, D: 2, Dist: "few-distinct", Seed: 19, Source: 1},
		{Kind: serve.KindShear, Rows: 16, Cols: 16, Dist: "reversed", Seed: 7},
		{Kind: serve.KindFaultRoute, N: 7, Faults: 2, Pairs: 8, Seed: 11},
		{Kind: serve.KindPermRoute, N: 5, Pattern: "random", Seed: 13},
	}
}

// ClusterLoad measures the sharded cluster end to end: the same
// closed-loop load driven through the routing client against three
// one-worker nodes and against a single identical node, parity
// asserted on both against standalone scenario runs, followed by a
// drain exercise that queues a slow single-shape backlog, drains its
// owner mid-queue and verifies every migrated job re-executed
// bit-identically on a survivor. With BENCH_DIR set the record lands
// in BENCH_DIR/BENCH_cluster.json and the experiment fails if the
// speedup falls below 1.8x. That gate needs at least 4 CPUs (3
// workers + clients) and skips itself on smaller hosts.
func ClusterLoad(w io.Writer) error {
	cfg := loadgen.ClusterLoadConfig{
		Nodes:          3,
		WorkersPerNode: 1,
		Queue:          64,
		Clients:        6,
		JobsPerClient:  16,
		Specs:          clusterSpecs(),
		Reps:           3,
	}
	// BENCH_CLUSTER_JOBS shrinks the per-client job count (the
	// experiment test suite sets it; CI's cluster job runs the full
	// default).
	if s := os.Getenv("BENCH_CLUSTER_JOBS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return fmt.Errorf("cluster: bad BENCH_CLUSTER_JOBS %q", s)
		}
		cfg.JobsPerClient = n
		cfg.Reps = 1
	}
	cmp, err := loadgen.RunClusterComparison(cfg)
	if err != nil {
		return err
	}
	rec := loadgen.NewClusterBenchRecord(cfg, cmp)

	t := exptab.New(fmt.Sprintf("Sharded cluster: closed-loop load, %d clients × %d jobs, %d shapes over %d nodes",
		cfg.Clients, cfg.JobsPerClient, rec.Shapes, cfg.Nodes),
		"topology", "jobs", "elapsed-ms", "jobs/s", "p50-ms", "p99-ms")
	t.Add(fmt.Sprintf("%d-node cluster", cfg.Nodes), cmp.Cluster.Jobs, cmp.Cluster.ElapsedNs/1e6,
		fmt.Sprintf("%.1f", cmp.Cluster.ThroughputJobsPerSec),
		cmp.Cluster.LatencyP50Ns/1e6, cmp.Cluster.LatencyP99Ns/1e6)
	t.Add("single node", cmp.Single.Jobs, cmp.Single.ElapsedNs/1e6,
		fmt.Sprintf("%.1f", cmp.Single.ThroughputJobsPerSec),
		cmp.Single.LatencyP50Ns/1e6, cmp.Single.LatencyP99Ns/1e6)
	t.Fprint(w)
	fmt.Fprintf(w, "\ncluster speedup: %.2fx (gate ≥%.1fx)   shape spread: %s   parity vs standalone runs: %t\n",
		rec.Speedup, clusterGateMinSpeedup, cmp.OwnerTable(), cmp.ParityOK)
	fmt.Fprintf(w, "drain exercise: %d queued jobs migrated off their node, all re-executed bit-identically: %t\n",
		cmp.Migrated, cmp.DrainParityOK)

	if err := writeRecord(w, "BENCH_cluster.json", &rec); err != nil {
		return err
	}

	exptab.StepSummary("### Sharded cluster (3 nodes vs 1)\n"+
		"| metric | value | gate |\n|---|---|---|\n"+
		"| cluster throughput | %.1f jobs/s | — |\n"+
		"| single-node throughput | %.1f jobs/s | — |\n"+
		"| speedup | %.2fx | ≥%.1fx |\n"+
		"| drain-migrated jobs | %d | >0, bit-identical |\n"+
		"| parity | %t | must hold |",
		rec.ClusterThroughput, rec.SingleThroughput, rec.Speedup, clusterGateMinSpeedup,
		rec.Migrated, rec.ParityOK && rec.DrainParityOK)

	// The 3 per-node workers plus the closed-loop clients need real
	// parallelism; gating the ratio on a smaller host would only
	// measure oversubscription.
	if cpus := runtime.NumCPU(); cpus < clusterGateMinCPUs {
		fmt.Fprintf(w, "speedup gate skipped: it needs %d CPUs, this host has %d\n", clusterGateMinCPUs, cpus)
		return nil
	}
	return exptab.Gate(w, rec.Speedup >= clusterGateMinSpeedup,
		"cluster: speedup %.2fx below the %.1fx gate (cluster %.1f vs single %.1f jobs/s)",
		rec.Speedup, clusterGateMinSpeedup, rec.ClusterThroughput, rec.SingleThroughput)
}

// The cluster comparison harness behind BENCH_cluster.json: the same
// closed-loop load driven through the routing client against a
// 3-node in-process cluster and against a single node, plus a drain
// exercise that migrates a held backlog and re-verifies every
// migrated job bit-identically. Like the serve bench, all traffic
// goes through the public typed client over real HTTP listeners, so
// the measured speedup includes the routing layer's own cost.
package loadgen

import (
	"context"
	"fmt"
	"maps"
	"net/http/httptest"
	"slices"
	"strings"
	"time"

	"starmesh/client"
	"starmesh/internal/cluster"
	"starmesh/internal/exptab"
	"starmesh/internal/serve"
)

// ClusterLoadConfig shapes one cluster-vs-single comparison.
type ClusterLoadConfig struct {
	// Nodes is the cluster size (the single-node baseline always runs
	// one node of the same per-node configuration).
	Nodes int
	// WorkersPerNode pins each node's worker count — the bench uses 1
	// so the cluster's parallelism is the node count, not GOMAXPROCS.
	WorkersPerNode int
	Queue          int
	// Clients and JobsPerClient define the closed loop, as in
	// LoadConfig. Specs round-robin across the stream and should span
	// several pool shapes, or everything routes to one owner.
	Clients       int
	JobsPerClient int
	Specs         []JobSpec
	// Reps interleaves cluster/single measurement pairs and keeps the
	// best of each (0 = 1), like RunComparison.
	Reps int
	// DrainBacklog is how many slow star:8 sweep jobs the drain
	// exercise queues before draining their owner (0 = 8).
	DrainBacklog int
}

// ClusterComparison is the cluster-vs-single measurement plus the
// drain-migration verdict.
type ClusterComparison struct {
	Cluster LoadResult `json:"cluster"`
	Single  LoadResult `json:"single"`
	// ShapeOwners is the deterministic shape→node assignment the ring
	// produced for the bench specs — the evidence the load actually
	// spread (the ring hash is frozen, so this never drifts).
	ShapeOwners map[string]string `json:"shape_owners"`
	// OwnerShapes counts shapes per node.
	OwnerShapes map[string]int `json:"owner_shapes"`
	// Migrated is how many queued jobs the drain exercise handed off;
	// DrainParityOK means every one of them re-executed on a survivor
	// bit-identically to a standalone run of its spec.
	Migrated      int  `json:"migrated"`
	DrainParityOK bool `json:"drain_parity_ok"`
	// ParityOK covers the throughput phases: every job result on both
	// topologies matched the standalone reference.
	ParityOK bool `json:"parity_ok"`
}

// Speedup is cluster throughput over single-node throughput.
func (c *ClusterComparison) Speedup() float64 {
	if c.Single.ThroughputJobsPerSec <= 0 {
		return 0
	}
	return c.Cluster.ThroughputJobsPerSec / c.Single.ThroughputJobsPerSec
}

// startCluster boots n services behind real listeners and wires them
// into one cluster map. The caller must call stop (idempotent) —
// and must not reuse the cluster after it.
func startCluster(n int, cfg serve.Config) (cluster.Map, func(), error) {
	m := cluster.Map{}
	services := make(map[string]*serve.Service, n)
	var servers []*httptest.Server
	stop := func() {
		for _, ts := range servers {
			ts.Close()
		}
		for _, svc := range services {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_ = svc.Shutdown(ctx)
			cancel()
		}
	}
	for i := 0; i < n; i++ {
		svc, err := serve.NewService(cfg)
		if err != nil {
			stop()
			return m, nil, err
		}
		ts := httptest.NewServer(svc.Handler())
		servers = append(servers, ts)
		name := fmt.Sprintf("n%d", i+1)
		services[name] = svc
		m.Nodes = append(m.Nodes, cluster.Node{Name: name, URL: ts.URL})
	}
	for name, svc := range services {
		if err := svc.SetCluster(name, m); err != nil {
			stop()
			return m, nil, err
		}
	}
	return m, stop, nil
}

// RunClusterComparison measures the same closed-loop load against an
// n-node cluster and a single node of identical per-node
// configuration, verifies both against standalone scenario runs,
// then runs the drain-migration exercise on a fresh cluster. With
// WorkersPerNode=1 the single-node run is strictly serial, so the
// speedup isolates what sharding buys — the cluster's extra cores do
// the work, the ring only points at them.
func RunClusterComparison(cfg ClusterLoadConfig) (ClusterComparison, error) {
	var cmp ClusterComparison
	if cfg.Nodes < 2 || cfg.Clients < 1 || cfg.JobsPerClient < 1 || len(cfg.Specs) == 0 {
		return cmp, fmt.Errorf("loadgen: cluster config needs ≥2 nodes, clients, jobs per client and specs")
	}
	svcCfg := serve.Config{Workers: cfg.WorkersPerNode, Queue: cfg.Queue}
	ref, err := newOracle(cfg.Specs)
	if err != nil {
		return cmp, err
	}

	// Both topologies sit behind the routing client, so both pay
	// identical client and HTTP costs and the delta is purely the
	// sharding.
	measure := func(mode string, nodes int) (LoadResult, error) {
		m, stop, err := startCluster(nodes, svcCfg)
		if err != nil {
			return LoadResult{}, err
		}
		defer stop()
		r, err := drive(closedLoop{
			clients: cfg.Clients,
			dial: func(_ int, onRetry func()) (target, error) {
				return client.NewCluster(m, pressure(onRetry)...)
			},
			specs: cfg.Specs,
			jobs:  cfg.JobsPerClient,
		})
		if err != nil {
			return LoadResult{}, err
		}
		res, err := fold(r.outcomes, r.elapsed)
		if err == nil {
			err = ref.check(mode, res.BySpec)
		}
		return res, err
	}
	for r := range max(cfg.Reps, 1) {
		clusterRes, err := measure("cluster", cfg.Nodes)
		if err != nil {
			return cmp, fmt.Errorf("cluster run: %w", err)
		}
		singleRes, err := measure("single", 1)
		if err != nil {
			return cmp, fmt.Errorf("single-node run: %w", err)
		}
		if r == 0 || clusterRes.ThroughputJobsPerSec > cmp.Cluster.ThroughputJobsPerSec {
			cmp.Cluster = clusterRes
		}
		if r == 0 || singleRes.ThroughputJobsPerSec > cmp.Single.ThroughputJobsPerSec {
			cmp.Single = singleRes
		}
	}
	cmp.ParityOK = true

	// Record the deterministic shape→owner spread of the bench specs.
	ring := cluster.Map{Nodes: make([]cluster.Node, 0, cfg.Nodes)}
	for i := 0; i < cfg.Nodes; i++ {
		ring.Nodes = append(ring.Nodes, cluster.Node{Name: fmt.Sprintf("n%d", i+1), URL: "x"})
	}
	r := ring.Ring()
	cmp.ShapeOwners = make(map[string]string)
	cmp.OwnerShapes = make(map[string]int)
	for _, spec := range cfg.Specs {
		norm, _ := spec.Normalized()
		shape := norm.Shape()
		if _, seen := cmp.ShapeOwners[shape]; seen {
			continue
		}
		owner := r.Owner(shape)
		cmp.ShapeOwners[shape] = owner
		cmp.OwnerShapes[owner]++
	}

	migrated, err := runDrainExercise(svcCfg, cfg)
	if err != nil {
		return cmp, err
	}
	cmp.Migrated, cmp.DrainParityOK = migrated, true
	return cmp, nil
}

// runDrainExercise queues a slow single-shape backlog on a fresh
// cluster, drains the owning node while the backlog is still queued,
// and verifies every migrated job completed on a survivor with a
// result bit-identical to a standalone run of its spec. It returns
// how many jobs migrated.
func runDrainExercise(svcCfg serve.Config, cfg ClusterLoadConfig) (int, error) {
	backlog := cfg.DrainBacklog
	if backlog < 1 {
		backlog = 8
	}
	m, stop, err := startCluster(cfg.Nodes, svcCfg)
	if err != nil {
		return 0, err
	}
	defer stop()
	cc, err := client.NewCluster(m)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	// One shape, one owner, ~hundreds of ms per job against a single
	// worker: the backlog is still queued when the drain lands.
	var ids []string
	for i := 0; i < backlog; i++ {
		job, err := cc.Submit(ctx, JobSpec{Kind: serve.KindSweep, N: 8, Trials: 30, Seed: int64(i + 1)})
		if err != nil {
			return 0, err
		}
		ids = append(ids, job.ID)
	}
	owner, _, _ := cluster.SplitID(ids[0])
	migrated, err := cc.Drain(ctx, owner)
	if err != nil {
		return 0, err
	}
	if len(migrated) == 0 {
		return 0, fmt.Errorf("loadgen: drain exercise migrated nothing — the backlog drained before the drain request landed")
	}
	outcomes := make([]outcome, 0, len(migrated))
	specs := make([]JobSpec, 0, len(migrated))
	for _, mj := range migrated {
		if node, _, _ := cluster.SplitID(mj.To); node == owner {
			return 0, fmt.Errorf("loadgen: migrated job %s resubmitted to the drained node", mj.To)
		}
		final, err := cc.Await(ctx, mj.To)
		if err != nil {
			return 0, err
		}
		if final.Status != serve.StatusDone || final.Result == nil {
			return 0, fmt.Errorf("loadgen: migrated job %s ended %s (%s)", mj.To, final.Status, final.Error)
		}
		outcomes = append(outcomes, outcome{job: final})
		specs = append(specs, final.Spec)
	}
	res, err := fold(outcomes, 0)
	if err != nil {
		return 0, err
	}
	ref, err := newOracle(specs)
	if err != nil {
		return 0, err
	}
	return len(migrated), ref.check("drain", res.BySpec)
}

// ClusterBenchRecord is the schema of BENCH_cluster.json: the same
// closed-loop load against an n-node cluster vs one node, with
// parity asserted on both topologies and on every drain-migrated
// job before any timing is reported.
type ClusterBenchRecord struct {
	exptab.Header
	API            string `json:"api"`
	Nodes          int    `json:"nodes"`
	WorkersPerNode int    `json:"workers_per_node"`
	Queue          int    `json:"queue"`
	Clients        int    `json:"clients"`
	JobsPerClient  int    `json:"jobs_per_client"`
	Specs          int    `json:"specs"`
	Shapes         int    `json:"shapes"`
	Reps           int    `json:"reps"`

	ClusterJobs       int     `json:"cluster_jobs"`
	ClusterNs         int64   `json:"cluster_ns"`
	ClusterThroughput float64 `json:"cluster_jobs_per_sec"`
	ClusterP50Ns      int64   `json:"cluster_latency_p50_ns"`
	ClusterP99Ns      int64   `json:"cluster_latency_p99_ns"`
	SingleJobs        int     `json:"single_jobs"`
	SingleNs          int64   `json:"single_ns"`
	SingleThroughput  float64 `json:"single_jobs_per_sec"`
	SingleP50Ns       int64   `json:"single_latency_p50_ns"`
	SingleP99Ns       int64   `json:"single_latency_p99_ns"`

	// Speedup is the headline: cluster over single-node throughput,
	// gated at ≥1.8x on 3 nodes on hosts with at least 4 CPUs.
	Speedup float64 `json:"speedup_cluster_vs_single"`
	// ShapeOwners records the frozen ring's shape→node assignment for
	// the bench specs; OwnerShapes the per-node shape counts.
	ShapeOwners map[string]string `json:"shape_owners"`
	OwnerShapes map[string]int    `json:"owner_shapes"`

	Migrated      int  `json:"migrated"`
	DrainParityOK bool `json:"drain_parity_ok"`
	ParityOK      bool `json:"parity_ok"`
}

// NewClusterBenchRecord folds a comparison into the record schema.
func NewClusterBenchRecord(cfg ClusterLoadConfig, cmp ClusterComparison) ClusterBenchRecord {
	return ClusterBenchRecord{
		Header:            exptab.Header{Benchmark: "cluster-closed-loop-sharded-vs-single"},
		API:               "v1-cluster-routing-client",
		Nodes:             cfg.Nodes,
		WorkersPerNode:    cfg.WorkersPerNode,
		Queue:             cfg.Queue,
		Clients:           cfg.Clients,
		JobsPerClient:     cfg.JobsPerClient,
		Specs:             len(cfg.Specs),
		Shapes:            len(cmp.ShapeOwners),
		Reps:              max(cfg.Reps, 1),
		ClusterJobs:       cmp.Cluster.Jobs,
		ClusterNs:         cmp.Cluster.ElapsedNs,
		ClusterThroughput: cmp.Cluster.ThroughputJobsPerSec,
		ClusterP50Ns:      cmp.Cluster.LatencyP50Ns,
		ClusterP99Ns:      cmp.Cluster.LatencyP99Ns,
		SingleJobs:        cmp.Single.Jobs,
		SingleNs:          cmp.Single.ElapsedNs,
		SingleThroughput:  cmp.Single.ThroughputJobsPerSec,
		SingleP50Ns:       cmp.Single.LatencyP50Ns,
		SingleP99Ns:       cmp.Single.LatencyP99Ns,
		Speedup:           cmp.Speedup(),
		ShapeOwners:       cmp.ShapeOwners,
		OwnerShapes:       cmp.OwnerShapes,
		Migrated:          cmp.Migrated,
		DrainParityOK:     cmp.DrainParityOK,
		ParityOK:          cmp.ParityOK,
	}
}

// OwnerTable renders the shape→owner spread as "node:count" pairs,
// sorted by node — the one-line balance summary the experiment
// prints.
func (c *ClusterComparison) OwnerTable() string {
	parts := make([]string, 0, len(c.OwnerShapes))
	for _, n := range slices.Sorted(maps.Keys(c.OwnerShapes)) {
		parts = append(parts, fmt.Sprintf("%s:%d", n, c.OwnerShapes[n]))
	}
	return strings.Join(parts, " ")
}

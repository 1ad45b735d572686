package loadgen

import (
	"strings"
	"testing"

	"starmesh/internal/exptab"
	"starmesh/internal/serve"
)

// A small end-to-end pass through the cluster harness: both
// topologies measured with parity against standalone runs, the shape
// spread recorded, and the drain exercise migrating a held backlog.
func TestRunClusterComparison(t *testing.T) {
	cfg := ClusterLoadConfig{
		Nodes:          3,
		WorkersPerNode: 1,
		Queue:          64,
		Clients:        3,
		JobsPerClient:  4,
		Specs: []JobSpec{
			{Kind: serve.KindSort, N: 5, Dist: "uniform", Seed: 1},
			{Kind: serve.KindFaultRoute, N: 6, Faults: 4, Pairs: 8, Seed: 2},
			{Kind: serve.KindShear, Rows: 16, Cols: 16, Dist: "reversed", Seed: 3},
			{Kind: serve.KindPermRoute, N: 5, Pattern: "random", Seed: 4},
		},
		DrainBacklog: 4,
	}
	cmp, err := RunClusterComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.ParityOK || !cmp.DrainParityOK {
		t.Fatalf("parity: load %t drain %t", cmp.ParityOK, cmp.DrainParityOK)
	}
	if cmp.Cluster.Jobs != 12 || cmp.Single.Jobs != 12 || cmp.Cluster.Failed != 0 || cmp.Single.Failed != 0 {
		t.Fatalf("job counts: %+v vs %+v", cmp.Cluster, cmp.Single)
	}
	if cmp.Migrated == 0 {
		t.Fatal("drain exercise migrated nothing")
	}
	// The ring's shape assignment is frozen, so the spread is a fixed
	// fact of this spec set: every shape has an owner and at least two
	// nodes participate.
	if len(cmp.ShapeOwners) != 4 {
		t.Fatalf("shape owners: %+v", cmp.ShapeOwners)
	}
	if len(cmp.OwnerShapes) < 2 {
		t.Fatalf("all shapes on one node: %+v", cmp.OwnerShapes)
	}
	if table := cmp.OwnerTable(); !strings.Contains(table, ":") {
		t.Fatalf("owner table %q", table)
	}
	if cmp.Speedup() <= 0 {
		t.Fatalf("speedup %f", cmp.Speedup())
	}

	rec := NewClusterBenchRecord(cfg, cmp)
	if rec.Nodes != 3 || rec.Shapes != 4 || rec.Migrated != cmp.Migrated || !rec.DrainParityOK {
		t.Fatalf("record: %+v", rec)
	}
	t.Setenv("BENCH_DIR", t.TempDir())
	if _, err := exptab.WriteRecord("BENCH_cluster.json", &rec); err != nil {
		t.Fatal(err)
	}
}

func TestRunClusterComparisonRejectsBadConfig(t *testing.T) {
	if _, err := RunClusterComparison(ClusterLoadConfig{Nodes: 1, Clients: 1, JobsPerClient: 1}); err == nil {
		t.Fatal("config with one node should be rejected")
	}
}

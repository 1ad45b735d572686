package loadgen

import (
	"net/http/httptest"
	"testing"

	"starmesh/internal/serve"
)

// testSpecs is a small mixed workload covering several kinds and
// both machine shapes.
func testSpecs() []JobSpec {
	return []JobSpec{
		{Kind: serve.KindSort, N: 4, Dist: "uniform", Seed: 7},
		{Kind: serve.KindSort, N: 4, Dist: "reversed", Seed: 7},
		{Kind: serve.KindShear, Rows: 8, Cols: 8, Dist: "uniform", Seed: 11},
		{Kind: serve.KindBroadcast, N: 4, Source: 1},
		{Kind: serve.KindSweep, N: 4},
		{Kind: serve.KindFaultRoute, N: 4, Faults: 2, Pairs: 8, Seed: 13},
	}
}

func TestRunLoadClosedLoop(t *testing.T) {
	svc, err := serve.NewService(serve.Config{Workers: 2, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	res, err := RunLoad(ts.URL, LoadConfig{
		Clients:       3,
		JobsPerClient: 4,
		Specs:         testSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 12 || res.Failed != 0 {
		t.Fatalf("load run incomplete: %+v", res)
	}
	if res.ThroughputJobsPerSec <= 0 || res.LatencyP50Ns <= 0 || res.LatencyP99Ns < res.LatencyP50Ns {
		t.Fatalf("load metrics inconsistent: %+v", res)
	}
	if len(res.BySpec) == 0 {
		t.Fatalf("no per-spec results recorded")
	}
}

func TestRunLoadRejectsBadConfig(t *testing.T) {
	if _, err := RunLoad("http://127.0.0.1:0", LoadConfig{}); err == nil {
		t.Fatal("empty load config accepted")
	}
}

func TestRunComparisonParity(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison run in -short mode")
	}
	// Two specs rely on normalization defaults (dist → uniform,
	// pairs → 1): parity keying must use the normalized form.
	specs := append(testSpecs(),
		JobSpec{Kind: serve.KindSort, N: 4, Seed: 3},
		JobSpec{Kind: serve.KindFaultRoute, N: 4, Faults: 1, Seed: 5},
	)
	cmp, err := RunComparison(
		serve.Config{Workers: 2, Queue: 16},
		LoadConfig{Clients: 2, JobsPerClient: 8, Specs: specs},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.ParityOK {
		t.Fatalf("parity failed: %+v", cmp)
	}
	if cmp.Pooled.Jobs != 16 || cmp.Unpooled.Jobs != 16 || cmp.Durable.Jobs != 16 {
		t.Fatalf("job counts wrong: %+v", cmp)
	}
	// The durable run really ran on the WAL: transitions were logged
	// (3 per job — submit, claim, finish — minus whatever the first
	// compaction absorbed).
	if cmp.DurableWALRecords == 0 {
		t.Fatalf("durable run logged no WAL records: %+v", cmp)
	}
	if cmp.PoolReuses == 0 {
		t.Fatalf("pooled run never reused a machine: builds %d, reuses %d", cmp.PoolBuilds, cmp.PoolReuses)
	}
	if cmp.UnpooledBuilds != 16 {
		t.Fatalf("unpooled run built %d machines, want one per job (16)", cmp.UnpooledBuilds)
	}
	// Every mode reads its queue-wait p99 from the job records, the
	// bare (NoObs) run included.
	if cmp.Pooled.QueueWaitP99Ns <= 0 || cmp.Bare.QueueWaitP99Ns <= 0 {
		t.Fatalf("queue-wait p99 pooled %d ns, bare %d ns; want both set", cmp.Pooled.QueueWaitP99Ns, cmp.Bare.QueueWaitP99Ns)
	}
	rec := NewBenchRecord(serve.Config{Workers: 2},
		LoadConfig{Clients: 2, JobsPerClient: 8, Specs: specs}, cmp)
	if rec.PooledJobs != 16 || !rec.ParityOK || rec.Queue != 64 {
		t.Fatalf("bench record malformed: %+v", rec)
	}
	if rec.DurableJobs != 16 || rec.DurableWALRecords == 0 {
		t.Fatalf("bench record missing the durable measurement: %+v", rec)
	}
	if rec.WALOverheadFrac != cmp.WALOverheadFrac() {
		t.Fatalf("wal overhead mismatch: record %v, comparison %v", rec.WALOverheadFrac, cmp.WALOverheadFrac())
	}
	if rec.API == "" {
		t.Fatalf("bench record missing the API marker: %+v", rec)
	}
}

package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"

	"starmesh/internal/exptab"
	"starmesh/internal/loadgen"
	"starmesh/internal/serve"
)

// serveSpecs is the mixed workload the load generator drives. The
// S_7 sweep and broadcast jobs are the service's bread and butter:
// 5040-PE machines whose construction (neighbor table, permutation
// cache, Lemma-3 route tables, plan binding/validation) costs far
// more than their short replayed schedules — exactly the fraction
// per-shape pooling amortizes away. Sort/shear/faultroute jobs mix
// in longer schedules and the other machine shapes.
// The list spans every registry family, so the pooled-vs-unpooled
// parity assertion covers the full scenario surface.
func serveSpecs() []serve.JobSpec {
	return []serve.JobSpec{
		{Kind: serve.KindSweep, N: 7},
		{Kind: serve.KindBroadcast, N: 7, Source: 0},
		{Kind: serve.KindBroadcast, N: 7, Source: 1},
		{Kind: serve.KindSort, N: 5, Dist: "uniform", Seed: 42},
		{Kind: serve.KindShear, Rows: 16, Cols: 16, Dist: "reversed", Seed: 7},
		{Kind: serve.KindFaultRoute, N: 6, Faults: 4, Pairs: 16, Seed: 9},
		{Kind: serve.KindEmbedRect, N: 7, D: 3},
		{Kind: serve.KindPermRoute, N: 5, Pattern: "random", Seed: 11},
		{Kind: serve.KindVirtual, N: 4, Dist: "uniform", Seed: 13},
		{Kind: serve.KindDiagnostics, N: 6, Holes: 4, Trials: 4, Seed: 17},
		{Kind: serve.KindPipeline, N: 5, D: 2, Dist: "few-distinct", Seed: 19, Source: 1},
	}
}

// ServeLoad measures the simulation job service end to end: a
// closed-loop load generator drives the v1 HTTP API through the
// typed client — submit with 429 backpressure honored, completion
// observed over the watch stream — against four services: per-shape
// machine pooling, a machine built per job, pooling on the WAL-backed
// durable store (a throwaway directory) and pooling without
// instrumentation (NoObs). Parity is asserted before any timing is
// reported: every job result in every mode must be bit-identical
// (unit routes, conflicts, self-check) to a standalone workload run
// of the same seed. With BENCH_DIR set the record lands in
// BENCH_DIR/BENCH_serve.json and the experiment fails if pooled
// throughput falls below build-per-job, the WAL costs more than 10%
// of pooled throughput, or the observability layer more than 5% of
// bare throughput; a /v1/metrics exposition that fails validation
// fails it regardless. Every mode builds its job machines with the
// simd defaults (plans on).
func ServeLoad(w io.Writer) error {
	svcCfg := serve.Config{Workers: 0, Queue: 32}
	load := loadgen.LoadConfig{
		Clients:       2 * runtime.GOMAXPROCS(0),
		JobsPerClient: 10,
		Specs:         serveSpecs(),
		// Three interleaved reps per mode, best kept: single runs on a
		// shared CI host swing ±20%, far more than the pooling or WAL
		// deltas being gated.
		Reps: 3,
	}
	cmp, err := loadgen.RunComparison(svcCfg, load)
	if err != nil {
		return err
	}
	rec := loadgen.NewBenchRecord(svcCfg, load, cmp)

	t := exptab.New(fmt.Sprintf("Job service: closed-loop load, %d clients × %d jobs, %d spec shapes",
		load.Clients, load.JobsPerClient, len(load.Specs)),
		"mode", "jobs", "elapsed-ms", "jobs/s", "p50-ms", "p99-ms", "builds", "reuses")
	t.Add("pooled", cmp.Pooled.Jobs, cmp.Pooled.ElapsedNs/1e6,
		fmt.Sprintf("%.1f", cmp.Pooled.ThroughputJobsPerSec),
		cmp.Pooled.LatencyP50Ns/1e6, cmp.Pooled.LatencyP99Ns/1e6,
		cmp.PoolBuilds, cmp.PoolReuses)
	t.Add("build-per-job", cmp.Unpooled.Jobs, cmp.Unpooled.ElapsedNs/1e6,
		fmt.Sprintf("%.1f", cmp.Unpooled.ThroughputJobsPerSec),
		cmp.Unpooled.LatencyP50Ns/1e6, cmp.Unpooled.LatencyP99Ns/1e6,
		cmp.UnpooledBuilds, int64(0))
	t.Add("wal-durable", cmp.Durable.Jobs, cmp.Durable.ElapsedNs/1e6,
		fmt.Sprintf("%.1f", cmp.Durable.ThroughputJobsPerSec),
		cmp.Durable.LatencyP50Ns/1e6, cmp.Durable.LatencyP99Ns/1e6,
		"-", "-")
	t.Add("bare-noobs", cmp.Bare.Jobs, cmp.Bare.ElapsedNs/1e6,
		fmt.Sprintf("%.1f", cmp.Bare.ThroughputJobsPerSec),
		cmp.Bare.LatencyP50Ns/1e6, cmp.Bare.LatencyP99Ns/1e6,
		"-", "-")
	t.Fprint(w)
	fmt.Fprintf(w, "\nparity vs standalone runs: %t   pooled speedup: %.2fx   backpressure rejections: %d+%d+%d\n",
		cmp.ParityOK, rec.SpeedupPooled, cmp.Pooled.Rejected, cmp.Unpooled.Rejected, cmp.Durable.Rejected)
	fmt.Fprintf(w, "wal durability overhead: %.1f%% of pooled throughput (%d records logged, %d snapshots)\n",
		100*rec.WALOverheadFrac, rec.DurableWALRecords, rec.DurableSnapshots)
	fmt.Fprintf(w, "observability overhead: %.1f%% of bare throughput   scheduler queue-wait p99: %.2fms\n",
		100*rec.ObsOverheadFrac, float64(rec.PooledQueueWaitP99Ns)/1e6)

	if err := writeRecord(w, "BENCH_serve.json", &rec); err != nil {
		return err
	}
	exptab.StepSummary("### Serve load (closed loop)\n"+
		"| mode | jobs/s |\n|---|---|\n| pooled | %.1f |\n| build-per-job | %.1f |\n| wal-durable | %.1f |\n| bare-noobs | %.1f |\n\n"+
		"pooled speedup %.2fx · WAL overhead %.1f%% · obs overhead %.1f%% · parity %t",
		rec.PooledThroughput, rec.UnpooledThroughput, rec.DurableThroughput, rec.BareThroughput,
		rec.SpeedupPooled, 100*rec.WALOverheadFrac, 100*rec.ObsOverheadFrac, rec.ParityOK)

	return errors.Join(
		exptab.Gate(w, rec.SpeedupPooled >= 1,
			"serve: pooled throughput (%.1f jobs/s) below build-per-job (%.1f jobs/s)",
			rec.PooledThroughput, rec.UnpooledThroughput),
		// The durability budget: every transition is one buffered
		// append on the submit/claim/finish path — it should be nearly
		// free next to job execution.
		exptab.Gate(w, rec.WALOverheadFrac <= walOverheadBudget,
			"serve: wal overhead %.1f%% exceeds the %.0f%% budget (durable %.1f vs pooled %.1f jobs/s)",
			100*rec.WALOverheadFrac, 100*walOverheadBudget, rec.DurableThroughput, rec.PooledThroughput),
		// The observability budget: the instruments are lock-free
		// atomics and the per-job trace is a handful of appends, so
		// anything above it is a hot-path regression.
		exptab.Gate(w, rec.ObsOverheadFrac <= obsOverheadBudget,
			"serve: observability overhead %.1f%% exceeds the %.0f%% budget (pooled %.1f vs bare %.1f jobs/s)",
			100*rec.ObsOverheadFrac, 100*obsOverheadBudget, rec.PooledThroughput, rec.BareThroughput),
	)
}

// writeRecord writes a bench record under BENCH_DIR and says where;
// with BENCH_DIR unset it writes nothing.
func writeRecord(w io.Writer, name string, rec exptab.Record) error {
	path, err := exptab.WriteRecord(name, rec)
	if err != nil || path == "" {
		return err
	}
	fmt.Fprintf(w, "record written to %s\n", path)
	return nil
}

// walOverheadBudget is the gated ceiling on the durable store's
// throughput cost relative to the in-memory pooled run.
const walOverheadBudget = 0.10

// obsOverheadBudget is the gated ceiling on the metrics/trace
// instrumentation's throughput cost relative to the bare NoObs run.
const obsOverheadBudget = 0.05

// Benchmarks regenerating every figure and table of the paper (one
// benchmark per artifact; see DESIGN.md's per-experiment index).
// Each benchmark executes the corresponding experiment end to end —
// workload generation, simulation and table rendering — so
// `go test -bench=. -benchmem` doubles as the full reproduction run.
package starmesh_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"starmesh"
	"starmesh/internal/core"
	"starmesh/internal/experiments"
	"starmesh/internal/exptab"
	"starmesh/internal/mesh"
	"starmesh/internal/meshsim"
	"starmesh/internal/perm"
	"starmesh/internal/simd"
	"starmesh/internal/sorting"
	"starmesh/internal/starsim"
	"starmesh/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2StarTopology(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3MeshTopology(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4Example(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkTable1Exchanges(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkFig7Mapping(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkLemma1(b *testing.B)            { benchExperiment(b, "lemma1") }
func BenchmarkLemma2(b *testing.B)            { benchExperiment(b, "lemma2") }
func BenchmarkTheorem4Dilation(b *testing.B)  { benchExperiment(b, "dilation") }
func BenchmarkTheorem6UnitRoute(b *testing.B) { benchExperiment(b, "unitroute") }
func BenchmarkStarProperties(b *testing.B)    { benchExperiment(b, "properties") }
func BenchmarkBroadcast(b *testing.B)         { benchExperiment(b, "broadcast") }
func BenchmarkFaultTolerance(b *testing.B)    { benchExperiment(b, "faults") }
func BenchmarkAtallahSimulation(b *testing.B) { benchExperiment(b, "atallah") }
func BenchmarkTheorem9(b *testing.B)          { benchExperiment(b, "theorem9") }
func BenchmarkSortOnStar(b *testing.B)        { benchExperiment(b, "sorting") }
func BenchmarkAppendixSweep(b *testing.B)     { benchExperiment(b, "appendix") }
func BenchmarkAblationEmbeddings(b *testing.B) {
	benchExperiment(b, "ablation")
}
func BenchmarkScheduleAblation(b *testing.B) { benchExperiment(b, "schedule") }
func BenchmarkEmbedRect(b *testing.B)        { benchExperiment(b, "embedrect") }
func BenchmarkCollectives(b *testing.B)      { benchExperiment(b, "collectives") }
func BenchmarkPermRouting(b *testing.B)      { benchExperiment(b, "permroute") }
func BenchmarkSurfaceAreas(b *testing.B)     { benchExperiment(b, "surface") }

// --- Microbenchmarks of the core operations -----------------------

func BenchmarkConvertDSPerOp(b *testing.B) {
	pts := workload.MeshPoints(10, 64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.ConvertDS(pts[i%len(pts)])
	}
}

func BenchmarkConvertSDPerOp(b *testing.B) {
	ps := workload.Perms(10, 64, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.ConvertSD(ps[i%len(ps)])
	}
}

func BenchmarkMeshNeighborClosedForm(b *testing.B) {
	ps := workload.Perms(10, 64, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = core.Neighbor(ps[i%len(ps)], 7, +1)
	}
}

func BenchmarkStarDistanceClosedForm(b *testing.B) {
	ps := workload.Perms(12, 64, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = starmesh.StarDistance(ps[i%len(ps)], ps[(i+1)%len(ps)])
	}
}

func BenchmarkUnitRouteStarN6(b *testing.B) {
	m := starsim.New(6)
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(pe int) int64 { return int64(pe) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MeshUnitRoute("A", "B", 1+i%5, +1)
	}
}

func BenchmarkUnitRouteMeshN6(b *testing.B) {
	m := meshsim.New(mesh.D(6))
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(pe int) int64 { return int64(pe) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.UnitRoute("A", "B", i%5, +1)
	}
}

func BenchmarkSnakeSortStarN4End2End(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	meshID := make([]int, 24)
	for pe := range meshID {
		meshID[pe] = core.UnmapID(4, pe)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sm := starsim.New(4)
		sm.AddReg("K")
		sm.Set("K", func(pe int) int64 { return int64(rng.Intn(1 << 16)) })
		if !sorting.SnakeSortStar(sm, "K", meshID).Sorted {
			b.Fatal("not sorted")
		}
	}
}

func BenchmarkEmbeddingConstructionN7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.NewEmbedding(7)
	}
}

func BenchmarkRankUnrank(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := perm.Unrank(10, int64(i)%perm.Factorial(10))
		_ = p.Rank()
	}
}

// Keep exptab linked for table-rendering benches.
var _ = exptab.New

func BenchmarkMultiDimShear(b *testing.B) { benchExperiment(b, "mdshear") }
func BenchmarkUtilization(b *testing.B)   { benchExperiment(b, "utilization") }

// --- Execution engine: parallel sharded executor & route cache ----
//
// The S_8 workload (40,320 PEs) that BENCH_engine.json records: a
// full mesh-unit-route sweep, every dimension and direction, under
// (a) the pre-engine baseline (route cache disabled — the original
// closure-per-PE role tests), (b) the engine's sequential executor,
// and (c) the sharded parallel executor.

const engineBenchN = 8

func BenchmarkEngineSweepS8Baseline(b *testing.B) {
	m := starsim.New(engineBenchN, simd.WithPlans(false))
	m.SetRouteCache(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.EngineSweep(m)
	}
}

func BenchmarkEngineSweepS8Sequential(b *testing.B) {
	m := starsim.New(engineBenchN, simd.WithPlans(false))
	workload.EngineSweep(m) // warm the route tables outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.EngineSweep(m)
	}
}

func BenchmarkEngineSweepS8Parallel(b *testing.B) {
	m := starsim.New(engineBenchN, simd.WithExecutor(simd.Parallel(0)), simd.WithPlans(false))
	defer m.Close()
	workload.EngineSweep(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.EngineSweep(m)
	}
}

// Plan replay on the same sweep: the route schedule is compiled on
// the warm-up pass and replayed as dense delivery tables afterwards.
func BenchmarkEngineSweepS8Replay(b *testing.B) {
	m := starsim.New(engineBenchN)
	workload.EngineSweep(m) // records the plans
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.EngineSweep(m)
	}
}

func BenchmarkEngineSweepS8ReplayParallel(b *testing.B) {
	m := starsim.New(engineBenchN, simd.WithExecutor(simd.Parallel(0)))
	defer m.Close()
	workload.EngineSweep(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.EngineSweep(m)
	}
}

func BenchmarkEngineBatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := workload.RunBatch(context.Background(), workload.StandardBatch(5, 42), 0)
		if len(res.Errors) != 0 {
			b.Fatalf("batch errors: %v", res.Errors)
		}
	}
}

// Parallel execution on a multi-worker batch: each scenario machine
// runs the sharded executor with two workers parked on its persistent
// pool.
func BenchmarkEngineBatchPool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := workload.RunBatch(context.Background(), workload.StandardBatch(5, 42, simd.WithExecutor(simd.Parallel(2))), 0)
		if len(res.Errors) != 0 {
			b.Fatalf("batch errors: %v", res.Errors)
		}
	}
}

func BenchmarkEngineExperiment(b *testing.B) { benchExperiment(b, "engine") }

// TestEngineBenchRecord measures the S_8 sweep under all three
// closure-path execution modes plus the replay path's GOMAXPROCS
// 1→8 scaling curve, checks the engine determinism contract at every
// point, and emits the perf record. It writes BENCH_engine.json at
// the repository root when BENCH_ENGINE_RECORD is set (CI's bench
// job and the Makefile's bench target set it); otherwise the record
// goes to a scratch directory and the test only checks parity.
//
// When BENCH_ENGINE_GATE is also set AND the host has ≥ 4 CPUs, the
// test fails unless the parallel replay beats sequential replay by
// ≥ 1.5x at 4 procs. The CPU-count guard keeps the gate meaningful:
// GOMAXPROCS above the physical core count only time-slices, so a
// single-core host can never show real scaling and silently skips.
func TestEngineBenchRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping S_8 engine measurement in -short mode")
	}
	const reps = 2
	// Each mode is measured as the best of three timed windows: the
	// sweep is deterministic, so the windows differ only by scheduler
	// and GC jitter, and the minimum is the honest cost.
	measure := func(m *starsim.Machine, reps int) (time.Duration, simd.Stats, int64) {
		workload.EngineSweep(m) // warm route tables, plans and registers
		best := time.Duration(0)
		var stats simd.Stats
		for try := 0; try < 3; try++ {
			m.ResetStats()
			start := time.Now()
			for r := 0; r < reps; r++ {
				workload.EngineSweep(m)
			}
			elapsed := time.Since(start)
			stats = m.Stats()
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		return best, stats, workload.RegChecksum(m, "W")
	}

	// Closure path (plans off): the engine's route-cache and executor
	// costs in isolation; BENCH_plans.json covers replay vs closure.
	base := starsim.New(engineBenchN, simd.WithPlans(false))
	base.SetRouteCache(false)
	baseTime, baseStats, baseSum := measure(base, reps)
	seqTime, seqStats, seqSum := measure(starsim.New(engineBenchN, simd.WithPlans(false)), reps)
	par := starsim.New(engineBenchN, simd.WithExecutor(simd.Parallel(0)), simd.WithPlans(false))
	defer par.Close()
	parTime, parStats, parSum := measure(par, reps)

	if seqStats != parStats || seqSum != parSum {
		t.Fatalf("parallel executor diverged from sequential on S_%d:\nseq %+v sum %d\npar %+v sum %d",
			engineBenchN, seqStats, seqSum, parStats, parSum)
	}
	if seqStats != baseStats || seqSum != baseSum {
		t.Fatalf("route cache diverged from the generic baseline on S_%d:\nbase %+v sum %d\nseq %+v sum %d",
			engineBenchN, baseStats, baseSum, seqStats, seqSum)
	}

	// Replay path (plans on — the production path): sequential replay
	// as the scaling reference, then the parallel executor swept
	// GOMAXPROCS 1→8 on one warmed machine. Parallel(0) resolves its
	// worker count per route, so mutating GOMAXPROCS between points
	// reuses the same machine, plans and banks. More reps than the
	// closure path: replay is ~10x faster per sweep, so extra reps buy
	// noise reduction cheaply.
	const scalingMaxProcs = 8
	const scalingReps = 8
	replaySeqTime, replaySeqStats, replaySeqSum := measure(starsim.New(engineBenchN), scalingReps)
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	parReplay := starsim.New(engineBenchN, simd.WithExecutor(simd.Parallel(0)))
	defer parReplay.Close()
	curve := make([]workload.ScalingPoint, 0, scalingMaxProcs)
	for procs := 1; procs <= scalingMaxProcs; procs++ {
		runtime.GOMAXPROCS(procs)
		ptTime, ptStats, ptSum := measure(parReplay, scalingReps)
		if ptStats != replaySeqStats || ptSum != replaySeqSum {
			t.Fatalf("parallel replay diverged from sequential replay on S_%d at %d procs:\nseq %+v sum %d\npar %+v sum %d",
				engineBenchN, procs, replaySeqStats, replaySeqSum, ptStats, ptSum)
		}
		curve = append(curve, workload.ScalingPoint{
			Procs:    procs,
			ReplayNs: ptTime.Nanoseconds(),
			Speedup:  float64(replaySeqTime) / float64(ptTime),
		})
	}
	runtime.GOMAXPROCS(prevProcs)
	speedupAt4 := curve[3].Speedup
	if os.Getenv("BENCH_ENGINE_GATE") != "" {
		if runtime.NumCPU() < 4 {
			t.Logf("BENCH_ENGINE_GATE set but host has %d CPUs; skipping the 4-proc speedup gate", runtime.NumCPU())
		} else if speedupAt4 < 1.5 {
			t.Fatalf("parallel replay at 4 procs is %.2fx sequential, below the 1.5x gate (sequential %v, 4-proc %v)",
				speedupAt4, replaySeqTime, time.Duration(curve[3].ReplayNs))
		}
	}

	batch := workload.RunBatch(context.Background(), workload.StandardBatch(5, 42, simd.WithPlans(false)), 0)
	if len(batch.Errors) != 0 {
		t.Fatalf("batch errors: %v", batch.Errors)
	}

	rec := workload.BenchRecord{
		Benchmark:          fmt.Sprintf("engine-S%d-mesh-route-sweep", engineBenchN),
		Timestamp:          time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:         prevProcs,
		HostCPUs:           runtime.NumCPU(),
		N:                  engineBenchN,
		PEs:                int(perm.Factorial(engineBenchN)),
		Reps:               reps,
		BaselineNs:         baseTime.Nanoseconds(),
		SequentialNs:       seqTime.Nanoseconds(),
		ParallelNs:         parTime.Nanoseconds(),
		SpeedupEngine:      float64(baseTime) / float64(seqTime),
		SpeedupParallel:    speedupAt4,
		ReplaySequentialNs: replaySeqTime.Nanoseconds(),
		ReplayScaling:      curve,
		Batch:              &batch,
	}
	path := filepath.Join(t.TempDir(), "BENCH_engine.json")
	if os.Getenv("BENCH_ENGINE_RECORD") != "" {
		path = "BENCH_engine.json"
	}
	if err := rec.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	t.Logf("S_%d sweep ×%d: baseline %v, sequential %v (%.2fx), parallel %v; replay ×%d: sequential %v, 4-proc %.2fx (%d host CPUs) → %s",
		engineBenchN, reps, baseTime, seqTime, rec.SpeedupEngine, parTime,
		scalingReps, replaySeqTime, speedupAt4, rec.HostCPUs, path)
	if os.Getenv("BENCH_ENGINE_RECORD") != "" {
		exptab.StepSummary("### Engine bench (S_%d)\n"+
			"engine speedup %.2fx vs baseline · parallel replay at 4 procs %.2fx (gate ≥ 1.5x, %d host CPUs)",
			engineBenchN, rec.SpeedupEngine, speedupAt4, rec.HostCPUs)
	}
}

// TestPlanBenchRecord measures compiled route plans on the S_8 sweep,
// asserts parity (bit-identical stats and registers) and the perf
// gate — plan replay must not be slower than closure resolution — and
// emits the perf record. It writes BENCH_plans.json at the
// repository root when BENCH_PLANS_RECORD is set (CI's bench job and
// the Makefile's bench-plans target set it, with GOMAXPROCS > 1);
// otherwise the record goes to a scratch directory and the test only
// checks parity and the gate.
func TestPlanBenchRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping S_8 plan measurement in -short mode")
	}
	const reps = 2
	measure := func(m *starsim.Machine) (time.Duration, simd.Stats, int64) {
		workload.EngineSweep(m) // warm: records plans / builds route tables
		m.ResetStats()
		start := time.Now()
		for r := 0; r < reps; r++ {
			workload.EngineSweep(m)
		}
		return time.Since(start), m.Stats(), workload.RegChecksum(m, "W")
	}

	closure := starsim.New(engineBenchN, simd.WithPlans(false))
	closureTime, closureStats, closureSum := measure(closure)
	replay := starsim.New(engineBenchN)
	replayTime, replayStats, replaySum := measure(replay)

	parityOK := closureStats == replayStats && closureSum == replaySum
	if !parityOK {
		t.Fatalf("plan replay diverged from closure resolution on S_%d:\nclosure %+v sum %d\nreplay  %+v sum %d",
			engineBenchN, closureStats, closureSum, replayStats, replaySum)
	}
	if replayTime > closureTime {
		// Hard perf gate only in the bench job (BENCH_PLANS_RECORD
		// set): a timing assertion has no place in the tier-1 / race
		// runs, where scheduler noise could fail an unrelated change.
		msg := fmt.Sprintf("plan replay slower than closure resolution on the S_%d sweep: replay %v, closure %v",
			engineBenchN, replayTime, closureTime)
		if os.Getenv("BENCH_PLANS_RECORD") != "" {
			t.Fatal(msg)
		}
		t.Log("WARNING: " + msg)
	}

	rec := workload.PlanBenchRecord{
		Benchmark:     fmt.Sprintf("plans-S%d-mesh-route-sweep", engineBenchN),
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		N:             engineBenchN,
		PEs:           int(perm.Factorial(engineBenchN)),
		Reps:          reps,
		ClosureNs:     closureTime.Nanoseconds(),
		ReplayNs:      replayTime.Nanoseconds(),
		SpeedupReplay: float64(closureTime) / float64(replayTime),
		ParityOK:      parityOK,
		PlansCached:   simd.SharedPlans.Len(),
	}
	path := filepath.Join(t.TempDir(), "BENCH_plans.json")
	if os.Getenv("BENCH_PLANS_RECORD") != "" {
		path = "BENCH_plans.json"
	}
	if err := rec.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	t.Logf("S_%d sweep ×%d: closure %v, replay %v (%.2fx) → %s",
		engineBenchN, reps, closureTime, replayTime, rec.SpeedupReplay, path)
	if os.Getenv("BENCH_PLANS_RECORD") != "" {
		exptab.StepSummary("### Plans bench (S_%d)\n"+
			"plan replay %.2fx vs closure · parity %t",
			engineBenchN, rec.SpeedupReplay, parityOK)
	}
}

// Scaling sub-benchmarks: the O(n²) conversions and O(n) neighbor
// rule across star sizes.
func BenchmarkConvertScaling(b *testing.B) {
	for _, n := range []int{6, 8, 10, 12, 16, 20} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := workload.MeshPoints(n, 16, int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := core.ConvertDS(pts[i%len(pts)])
				_ = core.ConvertSD(p)
			}
		})
	}
}

func BenchmarkStarMachineScaling(b *testing.B) {
	for _, n := range []int{4, 5, 6, 7} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := starsim.New(n)
			m.AddReg("A")
			m.AddReg("B")
			m.Set("A", func(pe int) int64 { return int64(pe) })
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.MeshUnitRoute("A", "B", 1+i%(n-1), +1)
			}
		})
	}
}

func BenchmarkBroadcastScaling(b *testing.B) {
	for _, n := range []int{4, 5, 6} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := starmesh.NewStar(n)
			for i := 0; i < b.N; i++ {
				_ = g.BroadcastRounds(0)
			}
		})
	}
}

func BenchmarkVirtualization(b *testing.B) { benchExperiment(b, "virtual") }

// Benchmarks regenerating every figure and table of the paper (one
// benchmark per artifact; README.md lists the experiments).
// Each benchmark executes the corresponding experiment end to end —
// workload generation, simulation and table rendering — so
// `go test -bench=. -benchmem` doubles as the full reproduction run.
package starmesh_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"strings"
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

func BenchmarkMultiDimShear(b *testing.B) { benchExperiment(b, "mdshear") }
func BenchmarkUtilization(b *testing.B)   { benchExperiment(b, "utilization") }

// --- Execution engine: route cache and plan replay ----------------
//
// The S_8 workload (40,320 PEs) that BENCH_engine.json records: a
// full mesh-unit-route sweep, every dimension and direction, under
// closure resolution through the route cache and under plan replay.

const engineBenchN = 8

// engineSweep drives one full mesh-unit-route sweep — every
// dimension, both directions — on the star machine (register V
// routed into W): the standard workload of the engine benchmarks.
func engineSweep(m *starsim.Machine) {
	m.EnsureReg("V")
	m.EnsureReg("W")
	m.Set("V", func(pe int) int64 { return int64(pe) })
	for k := 1; k <= m.N-1; k++ {
		m.MeshUnitRoute("V", "W", k, +1)
		m.MeshUnitRoute("V", "W", k, -1)
	}
}

// regChecksum folds a register into an order-sensitive checksum, for
// cheap whole-register equality checks across execution paths.
func regChecksum(m *starsim.Machine, name string) int64 {
	sum := int64(0)
	for _, v := range m.Reg(name) {
		sum = sum*31 + v
	}
	return sum
}

func BenchmarkEngineSweepS8Sequential(b *testing.B) {
	m := starsim.New(engineBenchN, simd.WithPlans(false))
	engineSweep(m) // warm the route tables outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engineSweep(m)
	}
}

// Plan replay on the same sweep: the route schedule is compiled on
// the warm-up pass and replayed as dense delivery tables afterwards.
func BenchmarkEngineSweepS8Replay(b *testing.B) {
	m := starsim.New(engineBenchN)
	engineSweep(m) // records the plans
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engineSweep(m)
	}
}

// engineRecord is the schema of BENCH_engine.json, the one S_8
// engine record: replay against closure resolution per sweep, and
// the repeated single-sweep replays the regression gate compares.
type engineRecord struct {
	exptab.Header
	N    int `json:"n"`
	PEs  int `json:"pes"`
	Reps int `json:"reps"`

	// Compiled plans (the production path): the per-sweep time of
	// replay against the same sweep resolved through closures (plans
	// off, route cache on), and the plans cached.
	ClosureSweepNs int64   `json:"closure_sweep_ns"`
	ReplaySweepNs  int64   `json:"replay_sweep_ns"`
	SpeedupReplay  float64 `json:"speedup_replay_vs_closure"`
	PlansCached    int     `json:"plans_cached"`

	// Regression samples: single-sweep replays, each after Reset,
	// folded into the interval the next run's regression gate reads.
	SamplesNs []int64                   `json:"samples_ns"`
	SweepNs   exptab.Interval           `json:"sweep_ns"`
	SweepsPS  exptab.ThroughputInterval `json:"sweeps_per_sec"`
}

// TestEngineBenchRecord is the one S_8 engine harness. It measures
// the sweep under closure resolution, plan replay and five
// single-sweep replays, asserts the determinism contract on one sweep
// of each path (generic role tests ≡ route cache ≡ replay), and emits
// BENCH_engine.json. With BENCH_DIR set (the Makefile's bench target)
// it writes the record there and then enforces two gates; unset, it
// writes nothing and a missed gate is logged as a warning:
//
//   - plan replay no slower than closure resolution per sweep;
//   - the interval regression rule against the committed
//     BENCH_engine.json, read before anything is written.
func TestEngineBenchRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping S_8 engine measurement in -short mode")
	}
	baseline, err := readEngineRecord("BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder

	// Regression samples first, on the process's first S_8 machine: one
	// sweep records the plans and one untimed replay warms the reset
	// path, so no timed replay runs cold and sets alone the interval's
	// low end, which the regression gate reads.
	const samples = 5
	sampled := starsim.New(engineBenchN)
	engineSweep(sampled)
	sampled.Reset()
	engineSweep(sampled)
	sampleNs := make([]int64, samples)
	for i := range sampleNs {
		sampled.Reset()
		start := time.Now()
		engineSweep(sampled)
		sampleNs[i] = time.Since(start).Nanoseconds()
	}

	const reps = 2
	// measure warms m, fingerprints one sweep (Stats and the W
	// checksum) for the parity checks, and times the best of three
	// windows of reps sweeps: the sweep is deterministic, so the
	// windows differ only by scheduler and GC jitter, and the minimum
	// is the honest cost.
	measure := func(m *starsim.Machine, reps int) (time.Duration, simd.Stats, int64) {
		engineSweep(m) // warm route tables, plans and registers
		m.ResetStats()
		engineSweep(m)
		stats, sum := m.Stats(), regChecksum(m, "W")
		best := time.Duration(0)
		for try := 0; try < 3; try++ {
			start := time.Now()
			for r := 0; r < reps; r++ {
				engineSweep(m)
			}
			if elapsed := time.Since(start); best == 0 || elapsed < best {
				best = elapsed
			}
		}
		return best, stats, sum
	}

	// Closure path (plans off), timed; the generic role tests (route
	// cache off too) are its reference, on one untimed sweep.
	seqTime, seqStats, seqSum := measure(starsim.New(engineBenchN, simd.WithPlans(false)), reps)
	generic := starsim.New(engineBenchN, simd.WithPlans(false))
	generic.SetRouteCache(false)
	engineSweep(generic)
	if genStats, genSum := generic.Stats(), regChecksum(generic, "W"); genStats != seqStats || genSum != seqSum {
		t.Fatalf("route cache diverged from the generic role tests on S_%d:\ngeneric %+v sum %d\nclosure %+v sum %d",
			engineBenchN, genStats, genSum, seqStats, seqSum)
	}

	// Replay path (plans on — the production path). More reps than
	// the closure path: replay is ~10x faster per sweep, so extra reps
	// buy noise reduction cheaply.
	const replayReps = 8
	replayTime, replayStats, replaySum := measure(starsim.New(engineBenchN), replayReps)
	if replayStats != seqStats || replaySum != seqSum {
		t.Fatalf("plan replay diverged from closure resolution on S_%d:\nclosure %+v sum %d\nreplay  %+v sum %d",
			engineBenchN, seqStats, seqSum, replayStats, replaySum)
	}

	closureSweep := seqTime / reps
	replaySweep := replayTime / replayReps
	interval := exptab.NewInterval(sampleNs)
	rec := engineRecord{
		Header:         exptab.Header{Benchmark: fmt.Sprintf("engine-S%d-mesh-route-sweep", engineBenchN)},
		N:              engineBenchN,
		PEs:            int(perm.Factorial(engineBenchN)),
		Reps:           reps,
		ClosureSweepNs: closureSweep.Nanoseconds(),
		ReplaySweepNs:  replaySweep.Nanoseconds(),
		SpeedupReplay:  float64(closureSweep) / float64(replaySweep),
		PlansCached:    simd.SharedPlans.Len(),
		SamplesNs:      sampleNs,
		SweepNs:        interval,
		SweepsPS:       interval.Throughput(),
	}
	path, err := exptab.WriteRecord("BENCH_engine.json", &rec)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&log, "per sweep: closure %v, replay %v (%.2fx); %d plans cached\n",
		closureSweep, replaySweep, rec.SpeedupReplay, rec.PlansCached)
	fmt.Fprintf(&log, "regression samples %v: sweeps/s [%.1f, %.1f, %.1f]\n",
		sampleNs, rec.SweepsPS.Min, rec.SweepsPS.Median, rec.SweepsPS.Max)
	if path != "" {
		fmt.Fprintf(&log, "record written to %s\n", path)
	}

	var gates []error
	gates = append(gates, exptab.Gate(&log, replaySweep <= closureSweep,
		"plan replay slower than closure resolution on the S_%d sweep: replay %v, closure %v per sweep",
		engineBenchN, replaySweep, closureSweep))
	regressed, armed, verdict := rec.SweepsPS.RegressionAgainst(baseline.SweepsPS)
	fmt.Fprintf(&log, "regression vs committed BENCH_engine.json (%s): %s\n", baseline.Timestamp, verdict)
	if armed {
		gates = append(gates, exptab.Gate(&log, !regressed, "S_%d sweep throughput regressed: %s", engineBenchN, verdict))
	}
	t.Log(strings.TrimSpace(log.String()))
	if path != "" {
		exptab.StepSummary("### Engine bench (S_%d)\n"+
			"replay %.2fx vs closure · sweeps/s %.1f / %.1f / %.1f — %s",
			engineBenchN, rec.SpeedupReplay,
			rec.SweepsPS.Min, rec.SweepsPS.Median, rec.SweepsPS.Max, verdict)
	}
	if err := errors.Join(gates...); err != nil {
		t.Fatal(err)
	}
}

// readEngineRecord reads the committed engine record, the regression
// gate's baseline; a missing file is an empty baseline.
func readEngineRecord(path string) (engineRecord, error) {
	var rec engineRecord
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return rec, nil
	}
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("bad engine record %s: %w", path, err)
	}
	return rec, nil
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

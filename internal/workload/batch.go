// Batch scenario runner: executes many independent machine
// instances concurrently — the large-batch evaluation mode the
// engine exists for. Each Scenario builds its own machine (so
// instances share nothing and scale across workers), runs a
// workload, self-checks the result and reports unit-route costs.
// The per-scenario results are deterministic regardless of worker
// count; only the wall-clock changes.
package workload

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"starmesh/internal/graphalg"
	"starmesh/internal/meshsim"
	"starmesh/internal/simd"
	"starmesh/internal/sorting"
	"starmesh/internal/starsim"
)

// Scenario is one independently runnable workload instance. Run
// honors context cancellation at the runners' cooperative
// checkpoints, returning the partial result with ctx's error.
type Scenario struct {
	Name string
	Run  func(context.Context) (ScenarioResult, error)
}

// ScenarioResult reports one scenario's cost and self-check outcome.
type ScenarioResult struct {
	Name       string `json:"name"`
	UnitRoutes int    `json:"unit_routes"`
	Conflicts  int    `json:"conflicts"`
	OK         bool   `json:"ok"`
	ElapsedNs  int64  `json:"elapsed_ns"`
}

// BatchResult aggregates a concurrent batch run.
type BatchResult struct {
	Workers   int              `json:"workers"`
	ElapsedNs int64            `json:"elapsed_ns"`
	Scenarios []ScenarioResult `json:"scenarios"`
	Errors    []string         `json:"errors,omitempty"`
}

// RunBatch executes the scenarios on a pool of the given number of
// workers (<= 0 selects GOMAXPROCS). Results keep the input order;
// failures are collected, not fatal. Canceling ctx aborts the
// in-flight scenarios at their next checkpoint and skips the rest.
func RunBatch(ctx context.Context, scenarios []Scenario, workers int) BatchResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	if workers < 1 {
		workers = 1
	}
	results := make([]ScenarioResult, len(scenarios))
	errs := make([]error, len(scenarios))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sc := scenarios[i]
				t0 := time.Now()
				res, err := sc.Run(ctx)
				res.Name = sc.Name
				res.ElapsedNs = time.Since(t0).Nanoseconds()
				results[i] = res
				errs[i] = err
			}
		}()
	}
	for i := range scenarios {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	out := BatchResult{
		Workers:   workers,
		ElapsedNs: time.Since(start).Nanoseconds(),
		Scenarios: results,
	}
	for i, err := range errs {
		if err != nil {
			out.Errors = append(out.Errors, fmt.Sprintf("%s: %v", scenarios[i].Name, err))
		}
	}
	return out
}

// The Run*On functions execute one scenario on a caller-supplied
// machine, drawing all randomness from an explicit *rand.Rand. They
// are the single implementation shared by the standalone Scenario
// constructors below (which build a fresh machine per run) and the
// job service's pooled execution (internal/serve, which checks
// machines out of per-shape pools) — so a pooled run is bit-identical
// to a standalone run of the same seed by construction. Each runner
// assumes post-construction machine state (zero registers, zero
// stats): exactly what a fresh machine or a Reset pooled machine
// provides.
//
// Every runner with a long loop checks its context between
// iterations (a phase, a unit route, a trial): on cancellation it
// returns ctx's error plus the partial result accumulated so far,
// with OK forced false. The machine is left mid-workload but
// Reset-safe — registers and stats are exactly what Reset clears.

// canceledPartial shapes the partial result a runner reports when its
// context fires mid-run.
func canceledPartial(ctx context.Context, res ScenarioResult) (ScenarioResult, error) {
	res.OK = false
	return res, ctx.Err()
}

// RunSortOn snake-sorts keys of the given distribution on a star
// machine through the paper's embedding. The sort checks ctx once
// per odd-even transposition phase.
func RunSortOn(ctx context.Context, sm *starsim.Machine, d Dist, rng *rand.Rand) (ScenarioResult, error) {
	return runSort(ctx, sm, sorting.NewStarSort(sm, sm.MeshIDs()), d, rng)
}

// runSort is RunSortOn with the machine's snake-sort tables supplied
// by the caller (a pooled resource keeps them across jobs).
func runSort(ctx context.Context, sm *starsim.Machine, ss *sorting.StarSort, d Dist, rng *rand.Rand) (ScenarioResult, error) {
	keys := KeysRand(d, sm.Size(), rng)
	sm.EnsureReg("K")
	sm.Set("K", func(pe int) int64 { return keys[pe] })
	res, err := ss.Sort(ctx, "K")
	if err != nil {
		return canceledPartial(ctx, ScenarioResult{
			UnitRoutes: res.UnitRoutes,
			Conflicts:  res.Conflicts,
		})
	}
	if !res.Sorted {
		return ScenarioResult{}, fmt.Errorf("snake sort left keys unsorted")
	}
	return ScenarioResult{
		UnitRoutes: res.UnitRoutes,
		Conflicts:  res.Conflicts,
		OK:         res.Sorted && res.Conflicts == 0,
	}, nil
}

// RunShearOn shear-sorts keys of the given distribution on a 2-D
// mesh machine, checking ctx once per compare-exchange phase.
func RunShearOn(ctx context.Context, mm *meshsim.Machine, d Dist, rng *rand.Rand) (ScenarioResult, error) {
	keys := KeysRand(d, mm.Size(), rng)
	mm.EnsureReg("K")
	mm.Set("K", func(pe int) int64 { return keys[pe] })
	res, err := sorting.ShearSort2DCtx(ctx, mm, "K")
	if err != nil {
		return canceledPartial(ctx, ScenarioResult{
			UnitRoutes: res.UnitRoutes,
			Conflicts:  res.Conflicts,
		})
	}
	if !res.Sorted {
		return ScenarioResult{}, fmt.Errorf("shear sort left keys unsorted")
	}
	return ScenarioResult{
		UnitRoutes: res.UnitRoutes,
		Conflicts:  res.Conflicts,
		OK:         res.Sorted && res.Conflicts == 0,
	}, nil
}

// RunBroadcastOn floods one value from the given source PE across a
// star machine and checks every PE received it. The conflict count
// covers only this broadcast (stats are diffed), so the runner is
// exact on reused machines too. A broadcast is O(n log n) rounds —
// short — so ctx is checked only once up front.
func RunBroadcastOn(ctx context.Context, sm *starsim.Machine, source int) (ScenarioResult, error) {
	if err := ctx.Err(); err != nil {
		return ScenarioResult{}, err
	}
	if source < 0 || source >= sm.Size() {
		return ScenarioResult{}, fmt.Errorf("broadcast source %d out of range [0,%d)", source, sm.Size())
	}
	sm.EnsureReg("V")
	sm.EnsureReg("W")
	const payload = 42
	sm.Reg("V")[source] = payload
	before := sm.Stats()
	routes := sm.Broadcast("V", "W", source)
	for pe, v := range sm.Reg("W") {
		if v != payload {
			return ScenarioResult{}, fmt.Errorf("PE %d missed the broadcast (got %d)", pe, v)
		}
	}
	conflicts := sm.Stats().ReceiveConflicts - before.ReceiveConflicts
	return ScenarioResult{
		UnitRoutes: routes,
		Conflicts:  conflicts,
		OK:         conflicts == 0,
	}, nil
}

// RunSweepOn repeats the full mesh-unit-route sweep — every
// dimension, both directions — the given number of times on a star
// machine and reports the star unit routes it cost. trials ≥ 1
// scales the job's length (the service's long-running workload); the
// context is checked before every unit route, so cancellation aborts
// within one route's latency.
func RunSweepOn(ctx context.Context, sm *starsim.Machine, trials int) (ScenarioResult, error) {
	if trials < 1 {
		trials = 1
	}
	sm.EnsureReg("V")
	sm.EnsureReg("W")
	sm.Set("V", func(pe int) int64 { return int64(pe) })
	before := sm.Stats()
	partial := func() ScenarioResult {
		after := sm.Stats()
		conflicts := after.ReceiveConflicts - before.ReceiveConflicts
		return ScenarioResult{
			UnitRoutes: after.UnitRoutes - before.UnitRoutes,
			Conflicts:  conflicts,
			OK:         conflicts == 0,
		}
	}
	for t := 0; t < trials; t++ {
		for k := 1; k <= sm.N-1; k++ {
			for _, dir := range []int{+1, -1} {
				if ctx.Err() != nil {
					return canceledPartial(ctx, partial())
				}
				sm.MeshUnitRoute("V", "W", k, dir)
			}
		}
	}
	return partial(), nil
}

// RunFaultRouteOn routes the given number of random source/target
// pairs through the star graph while avoiding random fault sets of
// the given size (at most n-2, so a path always exists): a
// breadth-first search over the graph with the faulty vertices
// deleted. The reported unit routes are the total hops across all
// pairs; ctx is checked once per pair.
func RunFaultRouteOn(ctx context.Context, g starGraph, faults, pairs int, rng *rand.Rand) (ScenarioResult, error) {
	if faults > g.N()-2 {
		return ScenarioResult{}, fmt.Errorf("faults %d exceed the survivable n-2 = %d", faults, g.N()-2)
	}
	order := g.Order()
	hops := 0
	faulty := make([]bool, order)
	holes := make([]int, 0, faults)
	for i := 0; i < pairs; i++ {
		if ctx.Err() != nil {
			return canceledPartial(ctx, ScenarioResult{UnitRoutes: hops})
		}
		for _, h := range holes {
			faulty[h] = false
		}
		holes = holes[:0]
		for len(holes) < faults {
			if v := rng.Intn(order); !faulty[v] {
				faulty[v] = true
				holes = append(holes, v)
			}
		}
		src := rng.Intn(order)
		for faulty[src] {
			src = rng.Intn(order)
		}
		dst := rng.Intn(order)
		for faulty[dst] {
			dst = rng.Intn(order)
		}
		path := graphalg.BFSPath(graphalg.WithoutVertices(g, faulty), src, dst)
		if path == nil {
			return ScenarioResult{}, fmt.Errorf("no healthy route from %d to %d around %d faults", src, dst, faults)
		}
		hops += len(path) - 1
	}
	return ScenarioResult{UnitRoutes: hops, OK: true}, nil
}

// StandardBatch assembles a representative mixed batch spanning
// every registered scenario family: snake sorts across
// distributions, shear sorts, broadcasts, fault routing, and the
// embedrect/permroute/virtual/diagnostics/pipeline families, each the
// standalone (fresh machine per run) scenario ScenarioFor builds. It
// panics on a validation error: the specs are programmatic wiring,
// not input handling; callers with untrusted parameters go through
// ScenarioFor and handle the error.
func StandardBatch(n int, seed int64, opts ...simd.Option) []Scenario {
	specs := make([]Spec, 0, len(Dists)+10)
	for _, d := range Dists {
		specs = append(specs, Spec{Kind: KindSort, N: n, Dist: d.Name, Seed: seed})
	}
	ed := min(2, n-1) // embedrect/pipeline need d ≤ n-1 (S_2 only factorizes to d=1)
	specs = append(specs,
		Spec{Kind: KindShear, Rows: 16, Cols: 16, Dist: "uniform", Seed: seed},
		Spec{Kind: KindShear, Rows: 32, Cols: 8, Dist: "reversed", Seed: seed + 1},
		Spec{Kind: KindBroadcast, N: n, Source: 0},
		Spec{Kind: KindBroadcast, N: n, Source: 1},
		Spec{Kind: KindFaultRoute, N: n, Faults: n - 2, Pairs: 16, Seed: seed},
		Spec{Kind: KindEmbedRect, N: n, D: ed},
		Spec{Kind: KindPermRoute, N: min(n, MaxPermRouteN), Pattern: "random", Seed: seed},
		// The virtual sort runs (n+1)! phases; keep the mixed batch snappy.
		Spec{Kind: KindVirtual, N: min(n, 4), Dist: "uniform", Seed: seed},
		Spec{Kind: KindDiagnostics, N: n, Holes: n - 2, Trials: 2, Seed: seed},
		Spec{Kind: KindPipeline, N: n, D: ed, Dist: "uniform", Seed: seed},
	)
	scs := make([]Scenario, len(specs))
	for i, s := range specs {
		sc, err := ScenarioFor(s, opts...)
		if err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
		scs[i] = sc
	}
	return scs
}

// EngineSweep drives one full mesh-unit-route sweep — every
// dimension, both directions — on the star machine: the standard
// workload of the engine benchmarks and the `engine` parity
// experiment (register V routed into W).
func EngineSweep(m *starsim.Machine) {
	m.EnsureReg("V")
	m.EnsureReg("W")
	m.Set("V", func(pe int) int64 { return int64(pe) })
	for k := 1; k <= m.N-1; k++ {
		m.MeshUnitRoute("V", "W", k, +1)
		m.MeshUnitRoute("V", "W", k, -1)
	}
}

// RegChecksum folds a register into an order-sensitive checksum, for
// cheap whole-register equality checks across execution paths.
func RegChecksum(m *starsim.Machine, name string) int64 {
	sum := int64(0)
	for _, v := range m.Reg(name) {
		sum = sum*31 + v
	}
	return sum
}

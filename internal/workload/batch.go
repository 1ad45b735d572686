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

	"starmesh/internal/meshsim"
	"starmesh/internal/simd"
	"starmesh/internal/sorting"
	"starmesh/internal/star"
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
	keys := KeysRand(d, sm.Size(), rng)
	sm.EnsureReg("K")
	sm.Set("K", func(pe int) int64 { return keys[pe] })
	res, err := sorting.SnakeSortStarCtx(ctx, sm, "K", sm.MeshIDs())
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
// the given size (at most n-2, so a path always exists). The
// reported unit routes are the total hops across all pairs; ctx is
// checked once per pair.
func RunFaultRouteOn(ctx context.Context, g *star.Graph, faults, pairs int, rng *rand.Rand) (ScenarioResult, error) {
	if faults > g.N()-2 {
		return ScenarioResult{}, fmt.Errorf("faults %d exceed the survivable n-2 = %d", faults, g.N()-2)
	}
	hops := 0
	for i := 0; i < pairs; i++ {
		if ctx.Err() != nil {
			return canceledPartial(ctx, ScenarioResult{UnitRoutes: hops})
		}
		faulty := make(map[int]bool, faults)
		for len(faulty) < faults {
			faulty[rng.Intn(g.Order())] = true
		}
		src := rng.Intn(g.Order())
		for faulty[src] {
			src = rng.Intn(g.Order())
		}
		dst := rng.Intn(g.Order())
		for faulty[dst] {
			dst = rng.Intn(g.Order())
		}
		path := g.RouteAvoiding(g.Node(src), g.Node(dst), faulty)
		if path == nil {
			return ScenarioResult{}, fmt.Errorf("no healthy route from %d to %d around %d faults", src, dst, faults)
		}
		hops += len(path) - 1
	}
	return ScenarioResult{UnitRoutes: hops, OK: true}, nil
}

// The named scenario constructors are thin registry dispatches:
// each builds the canonical Spec and asks ScenarioFor for the
// standalone (fresh machine per run) scenario. mustScenario panics
// on validation errors — these constructors are programmatic wiring,
// not input handling; callers with untrusted parameters go through
// ScenarioFor and handle the error.
func mustScenario(s Spec, opts ...simd.Option) Scenario {
	sc, err := ScenarioFor(s, opts...)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return sc
}

// SortScenario snake-sorts n! keys of the given distribution on the
// star machine S_n through the paper's embedding.
func SortScenario(n int, d Dist, seed int64, opts ...simd.Option) Scenario {
	return mustScenario(Spec{Kind: KindSort, N: n, Dist: distName(d), Seed: seed}, opts...)
}

// ShearScenario shear-sorts a rows×cols mesh machine.
func ShearScenario(rows, cols int, d Dist, seed int64, opts ...simd.Option) Scenario {
	return mustScenario(Spec{Kind: KindShear, Rows: rows, Cols: cols, Dist: distName(d), Seed: seed}, opts...)
}

// BroadcastScenario floods one value from the given source PE across
// the star machine S_n and checks every PE received it.
func BroadcastScenario(n, source int, opts ...simd.Option) Scenario {
	return mustScenario(Spec{Kind: KindBroadcast, N: n, Source: source}, opts...)
}

// SweepScenario drives the full mesh-unit-route sweep on S_n.
func SweepScenario(n int, opts ...simd.Option) Scenario {
	return mustScenario(Spec{Kind: KindSweep, N: n}, opts...)
}

// FaultRouteScenario routes the given number of random source/target
// pairs through S_n while avoiding a random set of faulty nodes
// (at most n-2, so a path always exists). The reported unit routes
// are the total hops across all pairs.
func FaultRouteScenario(n, faults, pairs int, seed int64) Scenario {
	return mustScenario(Spec{Kind: KindFaultRoute, N: n, Faults: faults, Pairs: pairs, Seed: seed})
}

// EmbedRectScenario sweeps verified grouped unit routes over the
// appendix's d-dimensional rectangular mesh realized on S_n.
func EmbedRectScenario(n, d int, opts ...simd.Option) Scenario {
	return mustScenario(Spec{Kind: KindEmbedRect, N: n, D: d}, opts...)
}

// PermRouteScenario routes full permutation traffic of the given
// pattern obliviously on S_n.
func PermRouteScenario(n int, pattern string, seed int64) Scenario {
	return mustScenario(Spec{Kind: KindPermRoute, N: n, Pattern: pattern, Seed: seed})
}

// VirtualScenario snake-sorts (n+1)! keys on the virtualized
// machine D_{n+1}-on-S_n.
func VirtualScenario(n int, d Dist, seed int64, opts ...simd.Option) Scenario {
	return mustScenario(Spec{Kind: KindVirtual, N: n, Dist: distName(d), Seed: seed}, opts...)
}

// DiagnosticsScenario sweeps random vertex-hole patterns over S_n
// and measures reachability and eccentricity.
func DiagnosticsScenario(n, holes, trials int, seed int64) Scenario {
	return mustScenario(Spec{Kind: KindDiagnostics, N: n, Holes: holes, Trials: trials, Seed: seed})
}

// PipelineScenario chains embedrect → sort → broadcast on one star
// machine, Reset between phases.
func PipelineScenario(n, d int, dist Dist, seed int64, source int, opts ...simd.Option) Scenario {
	return mustScenario(Spec{Kind: KindPipeline, N: n, D: d, Dist: distName(dist), Seed: seed, Source: source}, opts...)
}

// StandardBatch assembles a representative mixed batch spanning
// every registered scenario family: snake sorts across
// distributions, shear sorts, broadcasts, fault routing, and the
// embedrect/permroute/virtual/diagnostics/pipeline families.
func StandardBatch(n int, seed int64, opts ...simd.Option) []Scenario {
	var scs []Scenario
	for _, d := range Dists {
		scs = append(scs, SortScenario(n, d.D, seed, opts...))
	}
	vn := n
	if vn > 4 {
		vn = 4 // the virtual sort runs (n+1)! phases; keep the mixed batch snappy
	}
	pn := n
	if pn > MaxPermRouteN {
		pn = MaxPermRouteN
	}
	ed := 2
	if ed > n-1 {
		ed = n - 1 // embedrect/pipeline need d ≤ n-1 (S_2 only factorizes to d=1)
	}
	scs = append(scs,
		ShearScenario(16, 16, Uniform, seed, opts...),
		ShearScenario(32, 8, Reversed, seed+1, opts...),
		BroadcastScenario(n, 0, opts...),
		BroadcastScenario(n, 1, opts...),
		FaultRouteScenario(n, n-2, 16, seed),
		EmbedRectScenario(n, ed, opts...),
		PermRouteScenario(pn, "random", seed),
		VirtualScenario(vn, Uniform, seed, opts...),
		DiagnosticsScenario(n, n-2, 2, seed),
		PipelineScenario(n, ed, Uniform, seed, 0, opts...),
	)
	return scs
}

func distName(d Dist) string {
	for _, e := range Dists {
		if e.D == d {
			return e.Name
		}
	}
	return fmt.Sprintf("dist%d", int(d))
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
// cheap whole-register equality checks across executors.
func RegChecksum(m *starsim.Machine, name string) int64 {
	sum := int64(0)
	for _, v := range m.Reg(name) {
		sum = sum*31 + v
	}
	return sum
}

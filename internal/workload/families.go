// The built-in scenario families. Each Register call below is the
// ONE place a scenario kind is wired: validation, pool shape,
// construction, execution and naming all live here, and every layer
// above (job service, experiments, CLI, facade) dispatches through
// the registry.
package workload

import (
	"context"
	"fmt"
	"math/rand"

	"starmesh/internal/mesh"
	"starmesh/internal/meshsim"
	"starmesh/internal/simd"
	"starmesh/internal/sorting"
	"starmesh/internal/starsim"
	"starmesh/internal/virtual"
)

// starMachine is the pooled resource of the star:N families: the
// star machine plus the shape tables its families build on first use.
// The tables depend only on n (and d), never on a job's keys, so they
// survive Reset and a reused machine never rebuilds them.
type starMachine struct {
	*starsim.Machine
	// rects[d] holds embedrect's grouped realization for d; pipeline's
	// first phase shares it.
	rects []*rectTables
	// sorter holds the snake sort's tables under the paper's vertex
	// map; pipeline's second phase shares it.
	sorter *sorting.StarSort
}

func newStarMachine(sm *starsim.Machine) *starMachine {
	return &starMachine{Machine: sm, rects: make([]*rectTables, sm.N)}
}

// rect returns (building on first use) the embedrect tables for d,
// 1 ≤ d ≤ n-1.
func (s *starMachine) rect(d int) *rectTables {
	if s.rects[d] == nil {
		s.rects[d] = newRectTables(s.Machine, d)
	}
	return s.rects[d]
}

// sort returns (building on first use) the snake-sort tables.
func (s *starMachine) sort() *sorting.StarSort {
	if s.sorter == nil {
		s.sorter = sorting.NewStarSort(s.Machine, s.MeshIDs())
	}
	return s.sorter
}

// graphResource is the pooled resource of the stargraph:N families:
// the O(n!·n) neighbour table of S_n, built once by the star machine's
// own construction (starsim.NewTopo), so a pooled BFS reads
// neighbours instead of unranking and re-ranking permutations.
type graphResource struct{ *starsim.Topo }

func (*graphResource) Reset() {}
func (*graphResource) Close() {}

// starN validates the star parameter of a spec.
func starN(s Spec) error {
	if s.N < 2 || s.N > MaxStarN {
		return fmt.Errorf("%s spec needs n in [2,%d], got %d", s.Kind, MaxStarN, s.N)
	}
	return nil
}

// normDist validates the key distribution and fills the uniform
// default.
func normDist(s Spec) (Spec, error) {
	if _, err := DistByName(s.Dist); err != nil {
		return s, err
	}
	if s.Dist == "" {
		s.Dist = "uniform"
	}
	return s, nil
}

// mustDist resolves a distribution already validated by Normalize.
func mustDist(name string) Dist {
	d, err := DistByName(name)
	if err != nil {
		panic(err)
	}
	return d
}

// buildStar, buildStarGraph: the shared constructors of the
// star-shaped pools.
func buildStar(s Spec, opts ...simd.Option) Resource {
	return newStarMachine(starsim.New(s.N, opts...))
}
func buildStarGraph(s Spec, _ ...simd.Option) Resource {
	return &graphResource{Topo: starsim.NewTopo(s.N)}
}

func starShape(s Spec) string      { return fmt.Sprintf("star:%d", s.N) }
func starGraphShape(s Spec) string { return fmt.Sprintf("stargraph:%d", s.N) }

func builtinRegistry() *Registry {
	r := NewRegistry()

	r.Register(Family{
		Kind:     KindSort,
		Summary:  "snake sort on the embedded mesh D_n of S_n",
		Package:  "internal/sorting",
		PaperRef: "§5, Theorem 6",
		Params:   "n, dist, seed",
		Normalize: func(s Spec) (Spec, error) {
			if err := starN(s); err != nil {
				return s, err
			}
			return normDist(s)
		},
		Shape: starShape,
		Build: buildStar,
		Run: func(ctx context.Context, s Spec, r Resource) (ScenarioResult, error) {
			sm := r.(*starMachine)
			return withRand(s.Seed, func(rng *rand.Rand) (ScenarioResult, error) {
				return runSort(ctx, sm.Machine, sm.sort(), mustDist(s.Dist), rng)
			})
		},
		Name: func(s Spec) string {
			return fmt.Sprintf("sort-star-n%d-%s-seed%d", s.N, s.Dist, s.Seed)
		},
		Demo: func() Spec { return Spec{Kind: KindSort, N: 4, Dist: "reversed", Seed: 1} },
	})

	r.Register(Family{
		Kind:     KindShear,
		Summary:  "shear sort on a rows×cols mesh machine",
		Package:  "internal/sorting",
		PaperRef: "§5 (mesh baseline)",
		Params:   "rows, cols, dist, seed",
		Normalize: func(s Spec) (Spec, error) {
			if s.Rows < 1 || s.Cols < 1 || s.Rows*s.Cols < 2 || s.Rows*s.Cols > MaxMeshPEs {
				return s, fmt.Errorf("shear spec needs 2 ≤ rows×cols ≤ %d, got %d×%d", MaxMeshPEs, s.Rows, s.Cols)
			}
			return normDist(s)
		},
		Shape: func(s Spec) string { return fmt.Sprintf("mesh:%dx%d", s.Rows, s.Cols) },
		Build: func(s Spec, opts ...simd.Option) Resource {
			return meshsim.New(mesh.New(s.Rows, s.Cols), opts...)
		},
		Run: func(ctx context.Context, s Spec, r Resource) (ScenarioResult, error) {
			return withRand(s.Seed, func(rng *rand.Rand) (ScenarioResult, error) {
				return RunShearOn(ctx, r.(*meshsim.Machine), mustDist(s.Dist), rng)
			})
		},
		Name: func(s Spec) string {
			return fmt.Sprintf("shear-mesh-%dx%d-%s-seed%d", s.Rows, s.Cols, s.Dist, s.Seed)
		},
		Demo: func() Spec { return Spec{Kind: KindShear, Rows: 8, Cols: 8, Dist: "reversed", Seed: 1} },
	})

	r.Register(Family{
		Kind:     KindBroadcast,
		Summary:  "greedy SIMD-B flood of one value across S_n",
		Package:  "internal/starsim",
		PaperRef: "§2 (broadcast bounds)",
		Params:   "n, source",
		Normalize: func(s Spec) (Spec, error) {
			if err := starN(s); err != nil {
				return s, err
			}
			if s.Source < 0 || int64(s.Source) >= factorial(s.N) {
				return s, fmt.Errorf("broadcast source %d out of range [0,%d)", s.Source, factorial(s.N))
			}
			return s, nil
		},
		Shape: starShape,
		Build: buildStar,
		Run: func(ctx context.Context, s Spec, r Resource) (ScenarioResult, error) {
			return RunBroadcastOn(ctx, r.(*starMachine).Machine, s.Source)
		},
		Name: func(s Spec) string {
			return fmt.Sprintf("broadcast-star-n%d-src%d", s.N, s.Source)
		},
		Demo: func() Spec { return Spec{Kind: KindBroadcast, N: 4, Source: 0} },
	})

	r.Register(Family{
		Kind:     KindSweep,
		Summary:  "full mesh-unit-route sweep (every dimension, both directions)",
		Package:  "internal/starsim",
		PaperRef: "Theorem 6",
		Params:   "n, trials",
		Normalize: func(s Spec) (Spec, error) {
			if err := starN(s); err != nil {
				return s, err
			}
			if s.Trials == 0 {
				s.Trials = 1
			}
			if s.Trials < 1 || s.Trials > MaxSweepTrials {
				return s, fmt.Errorf("sweep needs trials in [1,%d], got %d", MaxSweepTrials, s.Trials)
			}
			return s, nil
		},
		Shape: starShape,
		Build: buildStar,
		Run: func(ctx context.Context, s Spec, r Resource) (ScenarioResult, error) {
			return RunSweepOn(ctx, r.(*starMachine).Machine, s.Trials)
		},
		Name: func(s Spec) string { return fmt.Sprintf("sweep-star-n%d-t%d", s.N, s.Trials) },
		Demo: func() Spec { return Spec{Kind: KindSweep, N: 4} },
	})

	r.Register(Family{
		Kind:     KindFaultRoute,
		Summary:  "point-to-point routing around random fault sets",
		Package:  "internal/star",
		PaperRef: "§2 (maximal fault tolerance)",
		Params:   "n, faults, pairs, seed",
		Normalize: func(s Spec) (Spec, error) {
			if err := starN(s); err != nil {
				return s, err
			}
			if s.Faults < 0 || s.Faults > s.N-2 {
				return s, fmt.Errorf("faultroute survives at most n-2 = %d faults, got %d", s.N-2, s.Faults)
			}
			if s.Pairs == 0 {
				s.Pairs = 1
			}
			if s.Pairs < 1 {
				return s, fmt.Errorf("faultroute needs pairs ≥ 1, got %d", s.Pairs)
			}
			return s, nil
		},
		Shape: starGraphShape,
		Build: buildStarGraph,
		Run: func(ctx context.Context, s Spec, r Resource) (ScenarioResult, error) {
			return withRand(s.Seed, func(rng *rand.Rand) (ScenarioResult, error) {
				return RunFaultRouteOn(ctx, r.(*graphResource).Topo, s.Faults, s.Pairs, rng)
			})
		},
		Name: func(s Spec) string {
			return fmt.Sprintf("faultroute-star-n%d-f%d-p%d-seed%d", s.N, s.Faults, s.Pairs, s.Seed)
		},
		Demo: func() Spec { return Spec{Kind: KindFaultRoute, N: 4, Faults: 2, Pairs: 4, Seed: 1} },
	})

	r.Register(Family{
		Kind:     KindEmbedRect,
		Summary:  "Atallah rectangular mesh l_1×…×l_d on S_n + verified grouped unit-route sweep",
		Package:  "internal/atallah, internal/meshops",
		PaperRef: "Appendix, Theorems 7–8",
		Params:   "n, d",
		Normalize: func(s Spec) (Spec, error) {
			if err := starN(s); err != nil {
				return s, err
			}
			if s.D == 0 {
				s.D = 2
			}
			if s.D < 1 || s.D > s.N-1 {
				return s, fmt.Errorf("embedrect needs d in [1,%d] for S_%d, got %d", s.N-1, s.N, s.D)
			}
			return s, nil
		},
		Shape: starShape,
		Build: buildStar,
		Run: func(ctx context.Context, s Spec, r Resource) (ScenarioResult, error) {
			sm := r.(*starMachine)
			return runEmbedRect(ctx, sm.Machine, sm.rect(s.D))
		},
		Name: func(s Spec) string { return fmt.Sprintf("embedrect-star-n%d-d%d", s.N, s.D) },
		Demo: func() Spec { return Spec{Kind: KindEmbedRect, N: 5, D: 2} },
	})

	r.Register(Family{
		Kind:     KindPermRoute,
		Summary:  "oblivious permutation routing (greedy or Valiant) with queueing accounting",
		Package:  "internal/permroute",
		PaperRef: "Theorem 6 contrast (arbitrary vs structured traffic)",
		Params:   "n, pattern, seed",
		Normalize: func(s Spec) (Spec, error) {
			if s.N < 2 || s.N > MaxPermRouteN {
				return s, fmt.Errorf("permroute spec needs n in [2,%d] (every node sources a message), got %d", MaxPermRouteN, s.N)
			}
			if s.Pattern == "" {
				s.Pattern = "random"
			}
			ok := false
			for _, p := range PermPatterns {
				ok = ok || p == s.Pattern
			}
			if !ok {
				return s, fmt.Errorf("permroute pattern %q unknown (want one of %v)", s.Pattern, PermPatterns)
			}
			return s, nil
		},
		Shape: func(s Spec) string { return "none" },
		Build: func(s Spec, _ ...simd.Option) Resource { return nullResource{} },
		Run: func(ctx context.Context, s Spec, _ Resource) (ScenarioResult, error) {
			return RunPermRouteOn(ctx, s.N, s.Pattern, s.Seed)
		},
		Name: func(s Spec) string {
			return fmt.Sprintf("permroute-star-n%d-%s-seed%d", s.N, s.Pattern, s.Seed)
		},
		Demo: func() Spec { return Spec{Kind: KindPermRoute, N: 4, Pattern: "random", Seed: 1} },
	})

	r.Register(Family{
		Kind:     KindVirtual,
		Summary:  "virtual snake sort: (n+1)! keys of D_{n+1} on the n! PEs of S_n",
		Package:  "internal/virtual",
		PaperRef: "§4 extension (processor virtualization)",
		Params:   "n, dist, seed",
		Normalize: func(s Spec) (Spec, error) {
			if s.N < 2 || s.N > MaxVirtualN {
				return s, fmt.Errorf("virtual spec needs n in [2,%d] (the sort runs (n+1)! phases), got %d", MaxVirtualN, s.N)
			}
			return normDist(s)
		},
		Shape: func(s Spec) string { return fmt.Sprintf("virtual:%d", s.N) },
		Build: func(s Spec, opts ...simd.Option) Resource { return virtual.New(s.N, opts...) },
		Run: func(ctx context.Context, s Spec, r Resource) (ScenarioResult, error) {
			return withRand(s.Seed, func(rng *rand.Rand) (ScenarioResult, error) {
				return RunVirtualOn(ctx, r.(*virtual.Machine), mustDist(s.Dist), rng)
			})
		},
		Name: func(s Spec) string {
			return fmt.Sprintf("virtual-star-n%d-%s-seed%d", s.N, s.Dist, s.Seed)
		},
		Demo: func() Spec { return Spec{Kind: KindVirtual, N: 3, Dist: "uniform", Seed: 1} },
	})

	r.Register(Family{
		Kind:     KindDiagnostics,
		Summary:  "fault sweep: reachability and eccentricity under random vertex holes",
		Package:  "internal/graphalg",
		PaperRef: "§2 ((n-1)-connectivity)",
		Params:   "n, holes, trials, seed",
		Normalize: func(s Spec) (Spec, error) {
			if err := starN(s); err != nil {
				return s, err
			}
			if s.Holes < 0 || s.Holes > s.N-2 {
				return s, fmt.Errorf("diagnostics guarantees connectivity only for holes in [0,n-2] = [0,%d], got %d", s.N-2, s.Holes)
			}
			if s.Trials == 0 {
				s.Trials = 1
			}
			if s.Trials < 1 || s.Trials > MaxDiagnosticTrials {
				return s, fmt.Errorf("diagnostics needs trials in [1,%d], got %d", MaxDiagnosticTrials, s.Trials)
			}
			return s, nil
		},
		Shape: starGraphShape,
		Build: buildStarGraph,
		Run: func(ctx context.Context, s Spec, r Resource) (ScenarioResult, error) {
			return withRand(s.Seed, func(rng *rand.Rand) (ScenarioResult, error) {
				return RunDiagnosticsOn(ctx, r.(*graphResource).Topo, s.Holes, s.Trials, rng)
			})
		},
		Name: func(s Spec) string {
			return fmt.Sprintf("diagnostics-star-n%d-h%d-t%d-seed%d", s.N, s.Holes, s.Trials, s.Seed)
		},
		Demo: func() Spec { return Spec{Kind: KindDiagnostics, N: 5, Holes: 3, Trials: 2, Seed: 1} },
	})

	r.Register(Family{
		Kind:     KindPipeline,
		Summary:  "multi-phase chain embedrect → sort → broadcast on ONE machine, Reset between phases",
		Package:  "internal/workload",
		PaperRef: "§5 composition",
		Params:   "n, d, dist, seed, source",
		Normalize: func(s Spec) (Spec, error) {
			if err := starN(s); err != nil {
				return s, err
			}
			if s.D == 0 {
				s.D = 2
			}
			if s.D < 1 || s.D > s.N-1 {
				return s, fmt.Errorf("pipeline needs d in [1,%d] for S_%d, got %d", s.N-1, s.N, s.D)
			}
			if s.Source < 0 || int64(s.Source) >= factorial(s.N) {
				return s, fmt.Errorf("pipeline broadcast source %d out of range [0,%d)", s.Source, factorial(s.N))
			}
			return normDist(s)
		},
		Shape: starShape,
		Build: buildStar,
		Run: func(ctx context.Context, s Spec, r Resource) (ScenarioResult, error) {
			return withRand(s.Seed, func(rng *rand.Rand) (ScenarioResult, error) {
				return runPipeline(ctx, r.(*starMachine), s.D, mustDist(s.Dist), s.Source, rng)
			})
		},
		Name: func(s Spec) string {
			return fmt.Sprintf("pipeline-star-n%d-d%d-%s-seed%d-src%d", s.N, s.D, s.Dist, s.Seed, s.Source)
		},
		Demo: func() Spec { return Spec{Kind: KindPipeline, N: 4, D: 2, Dist: "uniform", Seed: 1, Source: 0} },
	})

	return r
}

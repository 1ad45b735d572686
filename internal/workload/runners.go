// Machine-accepting runners for the five registry families that
// open up the previously idle packages: atallah/meshops (embedrect),
// permroute, virtual, graphalg (diagnostics) and the multi-phase
// pipeline. Like the runners in batch.go, each executes on a
// caller-supplied resource in post-construction state (fresh or
// Reset), drawing all randomness from an explicit *rand.Rand — so a
// pooled run is bit-identical to a standalone run of the same seed
// by construction.
package workload

import (
	"context"
	"fmt"
	"math/rand"

	"starmesh/internal/atallah"
	"starmesh/internal/graphalg"
	"starmesh/internal/meshops"
	"starmesh/internal/perm"
	"starmesh/internal/permroute"
	"starmesh/internal/simd"
	"starmesh/internal/starsim"
	"starmesh/internal/virtual"
)

// rectTables is what an embedrect run on one star machine depends on
// for one d: the grouped realization, its step plan, the star stepper,
// each PE's rectangular node id and the memoized grouped steps. All
// of it is a function of (n, d) under the paper's vertex map.
type rectTables struct {
	d     int
	g     *atallah.Grouped
	plan  *meshops.GroupedPlan
	st    meshops.Stepper
	rID   []int32 // PE → rectangular node id
	steps map[rectStep]*simd.Plan
}

// rectStep identifies one grouped step of the embedrect sweep.
type rectStep struct{ t, dir int }

func newRectTables(sm *starsim.Machine, d int) *rectTables {
	g := atallah.NewGrouped(atallah.Factorize(sm.N, d))
	rt := &rectTables{
		d:     d,
		g:     g,
		plan:  meshops.NewGroupedPlan(g),
		st:    meshops.NewStarStepper(sm),
		rID:   make([]int32, sm.Size()),
		steps: make(map[rectStep]*simd.Plan),
	}
	for pe := range rt.rID {
		rt.rID[pe] = int32(g.ToR(rt.st.MeshOf(pe)))
	}
	// A grouped step is a set of masked routes; build the route tables
	// they read now, so recording one never builds them.
	sm.BuildRouteTables()
	return rt
}

// runEmbedRect realizes the appendix's d-dimensional rectangular mesh
// R = l_1×…×l_d on the star machine (grouped snake realization + the
// paper's embedding) and sweeps one grouped unit route along every
// rectangular dimension in both directions, verifying each delivery
// against the rectangular mesh's own Step function. The unit routes
// reported are the physical star routes of the sweep; Theorem 6
// promises conflict freedom. Each grouped step's routes depend only
// on (n, d, t, dir), so each is recorded once and replayed as a
// compiled plan; ctx is checked before every grouped step.
func runEmbedRect(ctx context.Context, sm *starsim.Machine, rt *rectTables) (ScenarioResult, error) {
	sm.EnsureReg("V")
	sm.EnsureReg("W")
	// V holds each PE's rectangular node id; after a grouped step
	// along (t, dir), every node with a neighbor in direction -dir
	// must hold that neighbor's id in W.
	sm.Set("V", func(pe int) int64 { return int64(rt.rID[pe]) })
	before := sm.Stats()
	for t := 0; t < rt.d; t++ {
		for _, dir := range []int{+1, -1} {
			if ctx.Err() != nil {
				after := sm.Stats()
				return canceledPartial(ctx, ScenarioResult{
					UnitRoutes: after.UnitRoutes - before.UnitRoutes,
					Conflicts:  after.ReceiveConflicts - before.ReceiveConflicts,
				})
			}
			simd.RunMemoized(sm.Machine, simd.SharedPlans, rt.steps, rectStep{t: t, dir: dir},
				func() string { return fmt.Sprintf("grouped:d=%d:%d:%d:V:W", rt.d, t, dir) },
				func() { meshops.GroupedStep(rt.st, rt.plan, "V", "W", t, dir) })
			w := sm.Reg("W")
			for pe := range w {
				from := rt.g.R.Step(int(rt.rID[pe]), t, -dir)
				if from != -1 && w[pe] != int64(from) {
					return ScenarioResult{}, fmt.Errorf(
						"embedrect: grouped step t=%d dir=%+d delivered %d to rect node %d, want %d",
						t, dir, w[pe], rt.rID[pe], from)
				}
			}
		}
	}
	after := sm.Stats()
	conflicts := after.ReceiveConflicts - before.ReceiveConflicts
	return ScenarioResult{
		UnitRoutes: after.UnitRoutes - before.UnitRoutes,
		Conflicts:  conflicts,
		OK:         conflicts == 0,
	}, nil
}

// PermPatterns lists the destination patterns permutation routing
// accepts. "valiant" routes the random pattern through Valiant's
// two-phase randomized scheme (a second seeded bijection as the
// intermediate hop).
var PermPatterns = []string{"random", "reversal", "inverse", "shift", "valiant"}

// RunPermRouteOn routes full permutation traffic on S_n obliviously:
// every node sources one message along its greedy shortest path,
// each directed link carries one message per unit route, blocked
// messages queue. UnitRoutes reports the total hops taken and
// Conflicts the queueing overhead — the synchronous steps beyond the
// distance lower bound that link contention cost (zero for the
// embedding's structured traffic, unavoidable for arbitrary
// patterns).
func RunPermRouteOn(ctx context.Context, n int, pattern string, seed int64) (ScenarioResult, error) {
	if err := ctx.Err(); err != nil {
		return ScenarioResult{}, err
	}
	order := int(perm.Factorial(n))
	var res permroute.Result
	switch pattern {
	case "", "random":
		res = permroute.Route(n, permroute.RandomDest(order, seed))
	case "reversal":
		res = permroute.Route(n, permroute.ReversalDest(order))
	case "inverse":
		res = permroute.Route(n, permroute.InverseDest(n))
	case "shift":
		res = permroute.Route(n, permroute.ShiftDest(order))
	case "valiant":
		res = permroute.RouteValiant(n, permroute.RandomDest(order, seed), seed+1)
	default:
		return ScenarioResult{}, fmt.Errorf("permroute: unknown pattern %q (want one of %v)", pattern, PermPatterns)
	}
	overhead := res.Steps - res.MaxDist
	if overhead < 0 {
		overhead = 0
	}
	return ScenarioResult{
		UnitRoutes: res.TotalHops,
		Conflicts:  overhead,
		OK:         res.Messages == order,
	}, nil
}

// RunVirtualOn snake-sorts (n+1)! keys of the given distribution on
// the virtualized machine — the mesh D_{n+1} hosted on S_n with n+1
// virtual nodes per PE. The reported unit routes are the physical
// star routes consumed (amortized ≤ 3 per virtual move; the extra
// dimension is a free intra-PE slot shuffle).
func RunVirtualOn(ctx context.Context, vm *virtual.Machine, d Dist, rng *rand.Rand) (ScenarioResult, error) {
	keys := KeysRand(d, vm.Big.Order(), rng)
	vm.EnsureReg("K")
	vm.Set("K", func(bigID int) int64 { return keys[bigID] })
	before := vm.SM.Stats()
	sorted, routes, err := vm.SnakeSortCtx(ctx, "K")
	if err != nil {
		return canceledPartial(ctx, ScenarioResult{
			UnitRoutes: routes,
			Conflicts:  vm.SM.Stats().ReceiveConflicts - before.ReceiveConflicts,
		})
	}
	if !sorted {
		return ScenarioResult{}, fmt.Errorf("virtual snake sort left keys unsorted")
	}
	conflicts := vm.SM.Stats().ReceiveConflicts - before.ReceiveConflicts
	return ScenarioResult{
		UnitRoutes: routes,
		Conflicts:  conflicts,
		OK:         sorted && conflicts == 0,
	}, nil
}

// starGraph is what the graph families read of S_n: n, and each
// vertex's neighbours in generator order. star.Graph computes the
// neighbours from the permutations; the pooled stargraph:N resource
// reads them from starsim.Topo's table. Both list the same ids in the
// same order, so a run gives the same result on either.
type starGraph interface {
	graphalg.Graph
	N() int
}

// RunDiagnosticsOn sweeps random vertex-hole patterns over the star
// graph: each trial deletes the given number of random vertices and
// measures, from a random surviving probe, how much of the machine
// stays reachable and at what eccentricity. With holes ≤ n-2 the
// (n-1)-connected star graph provably stays connected — a
// disconnected trial is counted in Conflicts and fails the
// self-check. UnitRoutes reports the summed measured eccentricities
// (the fault-degraded diameter observations).
func RunDiagnosticsOn(ctx context.Context, g starGraph, holes, trials int, rng *rand.Rand) (ScenarioResult, error) {
	if holes > g.N()-2 {
		return ScenarioResult{}, fmt.Errorf("diagnostics: %d holes exceed the survivable n-2 = %d", holes, g.N()-2)
	}
	order := g.Order()
	sumEcc := 0
	disconnected := 0
	removed := make([]bool, order)
	for t := 0; t < trials; t++ {
		if ctx.Err() != nil {
			return canceledPartial(ctx, ScenarioResult{UnitRoutes: sumEcc, Conflicts: disconnected})
		}
		clear(removed)
		for cut := 0; cut < holes; {
			v := rng.Intn(order)
			if !removed[v] {
				removed[v] = true
				cut++
			}
		}
		probe := rng.Intn(order)
		for removed[probe] {
			probe = rng.Intn(order)
		}
		holed := graphalg.WithoutVertices(g, removed)
		reached, ecc := graphalg.ReachableFrom(holed, probe)
		if reached != order-holes {
			disconnected++
			continue
		}
		sumEcc += ecc
	}
	return ScenarioResult{
		UnitRoutes: sumEcc,
		Conflicts:  disconnected,
		OK:         disconnected == 0,
	}, nil
}

// runPipeline chains three phases on ONE pooled star machine — the
// rectangular-embedding sweep, the snake sort, then a broadcast —
// resetting the machine between phases so each starts from
// post-construction state while the amortized topology, route
// tables, compiled plans and the resource's embedrect and sort
// tables carry across. This is the pool-reuse story inside a single
// job: three workloads, one machine construction.
func runPipeline(ctx context.Context, sm *starMachine, d int, dist Dist, source int, rng *rand.Rand) (ScenarioResult, error) {
	phases := []func() (ScenarioResult, error){
		func() (ScenarioResult, error) { return runEmbedRect(ctx, sm.Machine, sm.rect(d)) },
		func() (ScenarioResult, error) { return runSort(ctx, sm.Machine, sm.sort(), dist, rng) },
		func() (ScenarioResult, error) { return RunBroadcastOn(ctx, sm.Machine, source) },
	}
	var total ScenarioResult
	total.OK = true
	for i, phase := range phases {
		if i > 0 {
			sm.Reset()
		}
		res, err := phase()
		if ctx.Err() != nil {
			total.UnitRoutes += res.UnitRoutes
			total.Conflicts += res.Conflicts
			return canceledPartial(ctx, total)
		}
		if err != nil {
			return ScenarioResult{}, fmt.Errorf("pipeline phase %d: %w", i+1, err)
		}
		total.UnitRoutes += res.UnitRoutes
		total.Conflicts += res.Conflicts
		total.OK = total.OK && res.OK
	}
	return total, nil
}

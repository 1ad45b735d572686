package experiments

import (
	"fmt"
	"io"

	"starmesh/internal/core"
	"starmesh/internal/exptab"
	"starmesh/internal/graphalg"
	"starmesh/internal/hypercube"
	"starmesh/internal/mesh"
	"starmesh/internal/meshops"
	"starmesh/internal/perm"
	"starmesh/internal/star"
	"starmesh/internal/starsim"
)

// Theorem6UnitRoute runs one unit route of the embedded mesh along
// every dimension/direction on the SIMD star machine and reports
// routes used, conflicts (must be 0, Lemma 5), and SIMD-A route
// counts.
func Theorem6UnitRoute(w io.Writer) error {
	t := exptab.New("Theorem 6: one mesh unit route on the star machine",
		"n", "dim", "dir", "star-routes(B)", "conflicts", "star-routes(A)", "data-ok")
	for n := 3; n <= 6; n++ {
		dn := mesh.D(n)
		for k := 1; k <= n-1; k++ {
			for _, dir := range []int{+1, -1} {
				m := starsim.New(n)
				m.AddReg("V")
				m.AddReg("W")
				m.Set("V", func(pe int) int64 { return int64(pe) })
				m.Set("W", func(pe int) int64 { return -1 })
				routes, conflicts := m.MeshUnitRoute("V", "W", k, dir)
				ok := true
				for u := 0; u < dn.Order(); u++ {
					v := dn.Step(u, k-1, dir)
					if v == -1 {
						continue
					}
					if m.Reg("W")[core.MapID(n, v)] != int64(core.MapID(n, u)) {
						ok = false
					}
				}
				ma := starsim.New(n)
				ma.AddReg("V")
				ma.AddReg("W")
				ma.Set("V", func(pe int) int64 { return int64(pe) })
				routesA := ma.MeshUnitRouteModelA("V", "W", k, dir)
				dirStr := "+"
				if dir < 0 {
					dirStr = "-"
				}
				t.Add(n, k, dirStr, routes, conflicts, routesA, ok)
				if conflicts != 0 || !ok || routes > 3 {
					return fmt.Errorf("Theorem 6 violated at n=%d k=%d dir=%d", n, k, dir)
				}
			}
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\npaper: <=3 SIMD-B routes (Theorem 6); SIMD-A costs an extra O(n) factor (Section 4)")
	return nil
}

// StarProperties reproduces the §2 property list and the intro's
// hypercube comparison: for each n, the star S_n against the
// smallest hypercube with at least n! nodes.
func StarProperties(w io.Writer) error {
	t := exptab.New("Star graph vs hypercube (hypercube chosen with >= n! nodes)",
		"n", "star-nodes", "star-degree", "star-diam(formula)", "star-diam(BFS)",
		"avg-dist", "cube-dim", "cube-nodes", "cube-degree", "cube-diam")
	for n := 3; n <= 8; n++ {
		g := star.New(n)
		bfsDiam := -1
		avg := -1.0
		if n <= 7 { // full BFS cheap up to 5040 nodes
			bfsDiam = graphalg.DiameterFromVertex(g)
			avg = graphalg.AvgDistance(g, 0)
		}
		d := hypercube.MinDimFor(perm.Factorial(n))
		q := hypercube.New(d)
		bfsStr := "-"
		if bfsDiam >= 0 {
			bfsStr = fmt.Sprint(bfsDiam)
		}
		avgStr := "-"
		if avg >= 0 {
			avgStr = fmt.Sprintf("%.2f", avg)
		}
		t.Add(n, perm.Factorial(n), n-1, star.DiameterFormula(n), bfsStr,
			avgStr, d, q.Order(), d, q.Diameter())
		if bfsDiam >= 0 && bfsDiam != star.DiameterFormula(n) {
			return fmt.Errorf("diameter formula violated at n=%d", n)
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\npaper/[AKER87]: with degree n-1 the star connects n! nodes vs 2^(n-1) for the hypercube;")
	fmt.Fprintln(w, "star diameter floor(3(n-1)/2) is asymptotically superior to the hypercube's log2 N")
	return nil
}

// Broadcast measures single-source broadcast rounds on S_n with
// four algorithms: greedy SIMD-B flooding, the sub-star-structured
// recursion ([AKER87] spirit), the SIMD-A generator sweep, and the
// route through the embedded mesh (dimension broadcasts × Theorem 6).
func Broadcast(w io.Writer) error {
	t := exptab.New("Broadcast on S_n (unit routes)",
		"n", "nodes", "greedy(B)", "substar-recursive(B)", "sweep(A)", "via-embedded-mesh(B)",
		"lower=ceil(lg n!)", "paper-bound")
	for n := 3; n <= 7; n++ {
		g := star.New(n)
		rounds := g.GreedyBroadcast(0)
		rec := g.RecursiveBroadcast(0)
		sweep := "-"
		if n <= 6 {
			sweep = fmt.Sprint(star.SweepBroadcast(n))
		}
		viaMesh := "-"
		if n <= 6 {
			sm := starsim.New(n)
			sm.AddReg("K")
			st := meshops.NewStarStepper(sm)
			sm.Reg("K")[st.PEOf(0)] = 1
			viaMesh = fmt.Sprint(meshops.BroadcastAll(st, "K"))
		}
		lo := star.BroadcastLowerBound(n)
		hi := star.BroadcastUpperBound(n)
		t.Add(n, g.Order(), rounds, rec, sweep, viaMesh, lo, fmt.Sprintf("%.1f", hi))
		if rounds < lo || float64(rounds) > hi {
			return fmt.Errorf("broadcast rounds out of bounds at n=%d", n)
		}
		if rec < lo || float64(rec) > hi {
			return fmt.Errorf("recursive broadcast out of bounds at n=%d", n)
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nall algorithms sit under the paper's 3(n lg n - 3/2) bound; flooding through")
	fmt.Fprintln(w, "the embedded mesh costs ~3x the mesh diameter, more than direct graph flooding")
	return nil
}

// FaultTolerance verifies κ(S_n) = n-1 via max-flow and reports
// random fault survival.
func FaultTolerance(w io.Writer) error {
	t := exptab.New("Maximal fault tolerance: vertex connectivity of S_n",
		"n", "degree", "connectivity", "maximally-fault-tolerant")
	for n := 3; n <= 5; n++ {
		g := star.New(n)
		k := graphalg.VertexConnectivity(g, true)
		t.Add(n, n-1, k, k == n-1)
		if k != n-1 {
			return fmt.Errorf("connectivity %d != %d at n=%d", k, n-1, n)
		}
	}
	t.Fprint(w)

	// Removing any n-2 vertices keeps S_n connected (sampled for n=5).
	g := star.New(5)
	trials, survived := 200, 0
	for i := 0; i < trials; i++ {
		holes := pickHoles(g.Order(), 3, int64(i)) // n-2 = 3 faults
		probe := 0
		for contains(holes, probe) {
			probe++
		}
		if graphalg.ConnectedExcept(g, probe, holes...) {
			survived++
		}
	}
	fmt.Fprintf(w, "\nrandom fault injection on S5: %d/%d trials with n-2=3 faults stayed connected\n", survived, trials)
	if survived != trials {
		return fmt.Errorf("S5 disconnected by %d faults", 3)
	}
	return nil
}

func pickHoles(order, count int, seed int64) []int {
	// simple LCG to stay deterministic without importing math/rand here
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	var holes []int
	for len(holes) < count {
		x = x*6364136223846793005 + 1442695040888963407
		h := int(x % uint64(order))
		if !contains(holes, h) {
			holes = append(holes, h)
		}
	}
	return holes
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

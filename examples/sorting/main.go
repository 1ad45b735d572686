// Parallel sorting on the star graph: N = n! keys are sorted into
// the snake order of the embedded mesh D_n by odd-even transposition,
// executed both natively on the mesh machine and on the star machine
// through the embedding. The run demonstrates the §5 discussion:
// mesh sorting algorithms transfer to the star graph at a route
// factor ≤ 3, while uniform-mesh sorters (which need N^(1/d) a power
// of two) do not apply — D_n's sides are 2,3,…,n.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"starmesh"
	"starmesh/internal/mesh"
	"starmesh/internal/sorting"
	"starmesh/internal/starsim"
	"starmesh/internal/workload"
)

const n = 5 // 120 keys on 120 processors

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's report to w. The keys come from fixed
// seeds, so every run prints the same bytes.
func run(w io.Writer) error {
	dn := mesh.D(n)
	N := dn.Order()

	for _, dist := range workload.Dists {
		keys := workload.Keys(dist.D, N, 42)

		// Native mesh run.
		mm := starmesh.NewDMeshMachine(n)
		mm.AddReg("K")
		mm.Set("K", func(pe int) int64 { return keys[pe] })
		rm := sorting.SnakeSortMesh(mm, "K")

		// Star run through the embedding.
		sm := starsim.New(n)
		sm.AddReg("K")
		meshID := sm.MeshIDs()
		sm.Set("K", func(pe int) int64 { return keys[meshID[pe]] })
		rs := sorting.SnakeSortStar(sm, "K", meshID)

		if !rm.Sorted || !rs.Sorted {
			return fmt.Errorf("%s: sort failed (mesh %v, star %v)", dist.Name, rm.Sorted, rs.Sorted)
		}
		if rs.Conflicts != 0 {
			return fmt.Errorf("%s: %d conflicts on the star (Lemma 5 violated)", dist.Name, rs.Conflicts)
		}
		for pe := 0; pe < sm.Size(); pe++ {
			if sm.Reg("K")[pe] != mm.Reg("K")[meshID[pe]] {
				return fmt.Errorf("%s: final placements differ", dist.Name)
			}
		}
		fmt.Fprintf(w, "%-12s  mesh %4d routes   star %4d routes   ratio %.2f (bound 3.00)\n",
			dist.Name, rm.UnitRoutes, rs.UnitRoutes,
			float64(rs.UnitRoutes)/float64(rm.UnitRoutes))
	}

	// Show the sorted snake prefix of the last run.
	fmt.Fprintf(w, "\nsorted %d keys into snake order of the %v embedded in S_%d\n", N, dn, n)
	return nil
}

// Quickstart: map mesh nodes onto the star graph, walk mesh edges
// through the embedding, and measure the embedding's quality —
// the 60-second tour of the public API.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"starmesh"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the tour to w.
func run(w io.Writer) error {
	const n = 5 // S_5: 120 processors; D_5: the 2*3*4*5 mesh

	// -- Node conversion (Figures 5 and 6) --------------------------
	pt := []int{1, 0, 3, 2} // (d_4,d_3,d_2,d_1) = (2,3,0,1)
	p := starmesh.MapMeshNode(pt)
	fmt.Fprintf(w, "mesh node (d4,d3,d2,d1)=(2,3,0,1) lives on star node %v\n", p)
	back := starmesh.UnmapStarNode(p)
	fmt.Fprintf(w, "and maps back to %v\n", back)

	// -- Mesh neighbors without leaving the star (Lemma 3) ----------
	q, ok := starmesh.MeshNeighbor(p, 4, +1)
	if !ok {
		return errors.New("expected a +4 neighbor")
	}
	fmt.Fprintf(w, "its mesh neighbor along +dimension 4 is %v (star distance %d)\n",
		q, starmesh.StarDistance(p, q))

	// -- The dilation-3 path realizing that mesh edge (Lemma 2) -----
	path, _ := starmesh.EdgePath(p, 4, +1)
	fmt.Fprintln(w, "the mesh edge is routed through:")
	for i, node := range path {
		fmt.Fprintf(w, "  hop %d: %v\n", i, node)
	}

	// -- Whole-embedding quality (Theorem 4) ------------------------
	e := starmesh.NewEmbedding(n)
	if err := e.Validate(); err != nil {
		return fmt.Errorf("embedding invalid: %v", err)
	}
	m := e.Metrics()
	fmt.Fprintf(w, "embedding D_%d -> S_%d: expansion %.0f, dilation %d, avg dilation %.2f, congestion %d\n",
		n, n, m.Expansion, m.Dilation, m.AvgDilation, m.Congestion)

	// -- One SIMD mesh unit route on the star machine (Theorem 6) ---
	sm := starmesh.NewStarMachine(n)
	sm.AddReg("A")
	sm.AddReg("B")
	sm.Set("A", func(pe int) int64 { return int64(pe) })
	routes, conflicts := sm.MeshUnitRoute("A", "B", 2, +1)
	fmt.Fprintf(w, "one mesh unit route along dimension 2 took %d star routes, %d conflicts\n",
		routes, conflicts)

	// -- Star graph facts (Section 2) -------------------------------
	s := starmesh.NewStar(n)
	fmt.Fprintf(w, "S_%d: %d nodes, degree %d, diameter %d, broadcast in %d unit routes\n",
		n, s.Order(), s.Degree(), s.Diameter(), s.BroadcastRounds(0))
	return nil
}

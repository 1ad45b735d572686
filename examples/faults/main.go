// Fault tolerance on the star graph: S_n is maximally fault
// tolerant — its vertex connectivity equals its degree n-1 (§2,
// [AKER87]). This example verifies the claim with max-flow
// (Menger's theorem), kills random processors, and shows that
// point-to-point routing still succeeds around the faults.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"slices"

	"starmesh"
	"starmesh/internal/graphalg"
	"starmesh/internal/star"
)

const n = 5 // 120 processors, degree 4

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's report to w. The fault sets come from a
// fixed seed, so every run prints the same bytes.
func run(w io.Writer) error {
	s := starmesh.NewStar(n)
	g := s.G

	// 1. Vertex connectivity equals the degree.
	k := graphalg.VertexConnectivity(g, true)
	fmt.Fprintf(w, "S_%d: degree %d, vertex connectivity %d -> maximally fault tolerant: %v\n",
		n, s.Degree(), k, k == s.Degree())
	if k != s.Degree() {
		return errors.New("connectivity mismatch")
	}

	// 2. There are n-1 vertex-disjoint paths between any two nodes.
	src := g.ID(starmesh.IdentityPerm(n))
	dst := g.Order() - 1
	paths := graphalg.VertexDisjointPaths(g, src, dst)
	fmt.Fprintf(w, "vertex-disjoint paths between %v and %v: %d\n",
		g.Node(src), g.Node(dst), paths)

	// 3. Inject n-2 random faults; the network must stay connected
	// and routing must find a detour.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		removed := make([]bool, g.Order())
		var holeList []int
		for len(holeList) < n-2 {
			h := rng.Intn(g.Order())
			if h != src && h != dst && !removed[h] {
				removed[h] = true
				holeList = append(holeList, h)
			}
		}
		slices.Sort(holeList) // the report lists the faults in id order
		if !graphalg.ConnectedExcept(g, src, holeList...) {
			return fmt.Errorf("S_%d disconnected by %d faults — contradicts maximal fault tolerance", n, n-2)
		}
		path := graphalg.BFSPath(graphalg.WithoutVertices(g, removed), src, dst)
		healthy := star.Distance(g.Node(src), g.Node(dst))
		fmt.Fprintf(w, "trial %d: faults at %v; healthy distance %d, detour length %d\n",
			trial, holeList, healthy, len(path)-1)
		if path == nil {
			return errors.New("no route around faults")
		}
	}
	fmt.Fprintln(w, "all fault scenarios routed successfully")
	return nil
}

package star

import (
	"starmesh/internal/graphalg"
	"starmesh/internal/perm"
)

// Fault-tolerant routing. The star graph is (n-1)-connected (§2
// property 4), so any set of at most n-2 faulty nodes leaves every
// healthy pair connected; RouteAvoiding finds a shortest healthy
// path.

// RouteAvoiding returns a shortest path from p to q that avoids the
// faulty vertex ids, or nil if none exists (only possible when
// |faulty| ≥ n-1 or an endpoint is faulty). The returned path
// includes both endpoints.
func (g *Graph) RouteAvoiding(p, q perm.Perm, faulty map[int]bool) []perm.Perm {
	src, dst := g.ID(p), g.ID(q)
	if faulty[src] || faulty[dst] {
		return nil
	}
	if src == dst {
		return []perm.Perm{p.Clone()}
	}
	removed := make([]bool, g.Order())
	for h, bad := range faulty {
		removed[h] = bad
	}
	ids := graphalg.BFSPath(graphalg.WithoutVertices(g, removed), src, dst)
	if ids == nil {
		return nil
	}
	out := make([]perm.Perm, len(ids))
	for i, id := range ids {
		out[i] = g.Node(id)
	}
	return out
}

// MaxSafeFaults returns n-2, the largest number of arbitrary node
// faults S_n is guaranteed to survive (connectivity n-1).
func (g *Graph) MaxSafeFaults() int { return g.n - 2 }

// Package star implements the n-star interconnection network S_n of
// Akers, Harel and Krishnamurthy: the Cayley graph of the symmetric
// group on n symbols whose generators exchange the symbol at the
// front position with the symbol at position i.
//
// Following the paper's notation a node is written (a_{n-1} … a_1
// a_0); the front is position n-1 and a node is connected to the n-1
// nodes obtained by swapping positions n-1 and i for 0 ≤ i ≤ n-2.
// Nodes are identified with their permutation's lexicographic rank
// (see package perm), which gives the dense vertex ids used by the
// graph algorithms in package graphalg.
//
// The package provides exact shortest-path distances via the cycle
// formula, optimal greedy routing, the diameter formula ⌊3(n-1)/2⌋,
// and single-source broadcast algorithms, all of which back the §2
// property claims reproduced in experiment E12/E13.
package star

import (
	"fmt"

	"starmesh/internal/perm"
)

// Graph is the star graph S_n as a graphalg.Graph. Vertex ids are
// permutation ranks in [0, n!).
type Graph struct {
	n int
}

// New returns S_n. n must be at least 2 (S_1 is a single vertex and
// allowed too, but has no edges).
func New(n int) *Graph {
	if n < 1 || n > perm.MaxRankN {
		panic(fmt.Sprintf("star: unsupported n=%d", n))
	}
	return &Graph{n: n}
}

// N returns the degree parameter n (the number of symbols).
func (g *Graph) N() int { return g.n }

// Order returns n!.
func (g *Graph) Order() int { return int(perm.Factorial(g.n)) }

// Degree returns n-1, the degree of every vertex.
func (g *Graph) Degree() int { return g.n - 1 }

// Node returns the permutation with the given vertex id.
func (g *Graph) Node(id int) perm.Perm { return perm.Unrank(g.n, int64(id)) }

// ID returns the vertex id of a permutation.
func (g *Graph) ID(p perm.Perm) int { return int(p.Rank()) }

// ApplyGenerator returns p with positions n-1 and i exchanged; this
// is the paper's π^(i) neighbor (0 ≤ i ≤ n-2).
func ApplyGenerator(p perm.Perm, i int) perm.Perm {
	return p.SwapPositions(len(p)-1, i)
}

// AppendNeighbors implements graphalg.Graph.
func (g *Graph) AppendNeighbors(buf []int, v int) []int {
	p := perm.Unrank(g.n, int64(v))
	front := g.n - 1
	for i := 0; i < front; i++ {
		p[front], p[i] = p[i], p[front]
		buf = append(buf, int(p.Rank()))
		p[front], p[i] = p[i], p[front]
	}
	return buf
}

// NeighborPerms returns the n-1 neighbor permutations of p.
func NeighborPerms(p perm.Perm) []perm.Perm {
	front := len(p) - 1
	out := make([]perm.Perm, 0, front)
	for i := 0; i < front; i++ {
		out = append(out, ApplyGenerator(p, i))
	}
	return out
}

// IsEdge reports whether p and q differ by exactly one generator.
func IsEdge(p, q perm.Perm) bool {
	if len(p) != len(q) {
		return false
	}
	front := len(p) - 1
	if p[front] == q[front] {
		return false
	}
	diff := -1
	for i := 0; i < front; i++ {
		if p[i] != q[i] {
			if diff != -1 {
				return false
			}
			diff = i
		}
	}
	return diff != -1 && p[diff] == q[front] && q[diff] == p[front]
}

// DiameterFormula returns ⌊3(n-1)/2⌋, the exact diameter of S_n
// ([AKER87], §2 property 2).
func DiameterFormula(n int) int { return 3 * (n - 1) / 2 }

// DistanceToIdentity returns the exact shortest-path distance from
// the node rho to the identity node, using the classic cycle formula:
// with m = number of displaced symbols and c = number of nontrivial
// cycles of rho, the distance is m+c when the front symbol is at
// home and m+c-2 otherwise.
func DistanceToIdentity(rho perm.Perm) int {
	m := rho.NumNonFixed()
	if m == 0 {
		return 0
	}
	c := len(rho.Cycles())
	front := len(rho) - 1
	if rho[front] == front {
		return m + c
	}
	return m + c - 2
}

// Distance returns the exact shortest-path distance between two
// nodes of S_n. Star graphs are Cayley graphs, so
// d(p,q) = d(id, p⁻¹∘q).
func Distance(p, q perm.Perm) int {
	return DistanceToIdentity(p.Inverse().Compose(q))
}

// Route returns a shortest path from p to q as the sequence of nodes
// visited, including both endpoints. The greedy rule is the classic
// optimal one: if the front symbol is not at its target position,
// send it home; otherwise fetch any displaced symbol to the front.
func Route(p, q perm.Perm) []perm.Perm {
	if len(p) != len(q) {
		panic("star: route length mismatch")
	}
	front := len(p) - 1
	cur := p.Clone()
	qinv := q.Inverse()
	path := []perm.Perm{cur.Clone()}
	for !cur.Equal(q) {
		s := cur[front]
		target := qinv[s] // where symbol s belongs under q
		if target != front {
			cur[front], cur[target] = cur[target], cur[front]
		} else {
			// Front symbol is already correct; fetch the lowest
			// displaced symbol.
			i := 0
			for cur[i] == q[i] {
				i++
			}
			cur[front], cur[i] = cur[i], cur[front]
		}
		path = append(path, cur.Clone())
	}
	return path
}

// RouteGenerators returns the generator indices of a shortest path
// from p to q (len = Distance(p,q)).
func RouteGenerators(p, q perm.Perm) []int {
	path := Route(p, q)
	gens := make([]int, 0, len(path)-1)
	front := len(p) - 1
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		g := -1
		for j := 0; j < front; j++ {
			if a[j] != b[j] {
				g = j
				break
			}
		}
		gens = append(gens, g)
	}
	return gens
}

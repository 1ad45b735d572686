// Package hypercube implements the binary d-cube Q_d. The paper's
// introduction motivates the star graph as an alternative to the
// hypercube; the `properties` experiment reproduces that comparison
// (nodes, degree, diameter), and the `sorting` experiment sizes its
// bitonic-sort baseline with MinDimFor.
package hypercube

import (
	"fmt"
	"math/bits"
)

// Graph is the hypercube Q_d on 2^d vertices; vertex ids are the
// binary labels and edges flip a single bit.
type Graph struct {
	d int
}

// New returns Q_d.
func New(d int) *Graph {
	if d < 0 || d > 30 {
		panic(fmt.Sprintf("hypercube: unsupported dimension %d", d))
	}
	return &Graph{d: d}
}

// Dim returns d.
func (g *Graph) Dim() int { return g.d }

// Order returns 2^d.
func (g *Graph) Order() int { return 1 << g.d }

// AppendNeighbors implements graphalg.Graph.
func (g *Graph) AppendNeighbors(buf []int, v int) []int {
	for b := 0; b < g.d; b++ {
		buf = append(buf, v^(1<<b))
	}
	return buf
}

// Distance returns the Hamming distance between two vertices.
func Distance(u, v int) int { return bits.OnesCount32(uint32(u ^ v)) }

// Diameter returns d.
func (g *Graph) Diameter() int { return g.d }

// MinDimFor returns the smallest d with 2^d ≥ n.
func MinDimFor(n int64) int {
	d := 0
	for int64(1)<<d < n {
		d++
	}
	return d
}

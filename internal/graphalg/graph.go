// Package graphalg provides graph algorithms over an abstract graph
// interface: breadth-first search, eccentricity and diameter,
// vertex connectivity via max-flow (Menger's theorem), and structural
// checks (regularity, vertex-transitivity evidence). These are the
// measurement tools used to verify the star graph's properties
// claimed in §2 of the paper (diameter ⌊3(n−1)/2⌋, degree n−1,
// maximal fault tolerance).
package graphalg

// Graph is an undirected graph on vertices 0..Order()-1.
type Graph interface {
	// Order returns the number of vertices.
	Order() int
	// AppendNeighbors appends the neighbors of v to buf and returns
	// the extended slice. Implementations must return each neighbor
	// exactly once and must not include v itself.
	AppendNeighbors(buf []int, v int) []int
}

// Neighbors returns the neighbors of v as a fresh slice.
func Neighbors(g Graph, v int) []int {
	return g.AppendNeighbors(nil, v)
}

// Degree returns the number of neighbors of v.
func Degree(g Graph, v int) int {
	return len(g.AppendNeighbors(nil, v))
}

// Adjacency is a concrete Graph backed by adjacency lists.
type Adjacency struct {
	Adj [][]int
}

// NewAdjacency builds an empty adjacency graph with n vertices.
func NewAdjacency(n int) *Adjacency {
	return &Adjacency{Adj: make([][]int, n)}
}

// AddEdge inserts the undirected edge {u,v} (no duplicate checking).
func (a *Adjacency) AddEdge(u, v int) {
	a.Adj[u] = append(a.Adj[u], v)
	a.Adj[v] = append(a.Adj[v], u)
}

// Order implements Graph.
func (a *Adjacency) Order() int { return len(a.Adj) }

// AppendNeighbors implements Graph.
func (a *Adjacency) AppendNeighbors(buf []int, v int) []int {
	return append(buf, a.Adj[v]...)
}

// NumEdges returns the number of undirected edges of g.
func NumEdges(g Graph) int {
	total := 0
	var buf []int
	for v := 0; v < g.Order(); v++ {
		buf = g.AppendNeighbors(buf[:0], v)
		total += len(buf)
	}
	return total / 2
}

// IsRegular reports whether every vertex has the same degree, and
// that degree.
func IsRegular(g Graph) (bool, int) {
	n := g.Order()
	if n == 0 {
		return true, 0
	}
	d0 := Degree(g, 0)
	var buf []int
	for v := 1; v < n; v++ {
		buf = g.AppendNeighbors(buf[:0], v)
		if len(buf) != d0 {
			return false, -1
		}
	}
	return true, d0
}

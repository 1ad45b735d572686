package graphalg

// This file implements vertex-connectivity measurements used for the
// paper's "maximally fault tolerant" claim ([AKER87]): the star graph
// S_n is (n-1)-connected, i.e. its vertex connectivity equals its
// degree. By Menger's theorem the number of internally
// vertex-disjoint paths between two non-adjacent vertices equals the
// minimum number of vertices whose removal disconnects them, so we
// measure connectivity with unit-capacity max-flow on the node-split
// directed graph.

// VertexDisjointPaths returns the maximum number of internally
// vertex-disjoint paths between s and t (s != t). Adjacent pairs
// count the direct edge as one path.
func VertexDisjointPaths(g Graph, s, t int) int {
	if s == t {
		panic("graphalg: s == t")
	}
	n := g.Order()
	// Node splitting: vertex v becomes v_in = 2v, v_out = 2v+1 with a
	// unit-capacity internal arc, except s and t which are
	// uncapacitated (internal capacity n).
	// Arcs: u_out -> v_in for every edge {u,v}, capacity 1.
	type arc struct {
		to, rev int
		cap     int
	}
	adj := make([][]arc, 2*n)
	addArc := func(u, v, c int) {
		adj[u] = append(adj[u], arc{to: v, rev: len(adj[v]), cap: c})
		adj[v] = append(adj[v], arc{to: u, rev: len(adj[u]) - 1, cap: 0})
	}
	for v := 0; v < n; v++ {
		c := 1
		if v == s || v == t {
			c = n // effectively infinite
		}
		addArc(2*v, 2*v+1, c)
	}
	var buf []int
	for v := 0; v < n; v++ {
		buf = g.AppendNeighbors(buf[:0], v)
		for _, w := range buf {
			addArc(2*v+1, 2*w, 1)
		}
	}
	src, dst := 2*s+1, 2*t
	// Edmonds–Karp: BFS augmenting paths of capacity 1. The flow is
	// bounded by the degree, so this is cheap.
	flow := 0
	prevArc := make([]int, 2*n)
	prevNode := make([]int, 2*n)
	for {
		for i := range prevNode {
			prevNode[i] = -1
		}
		prevNode[src] = src
		queue := []int{src}
		for len(queue) > 0 && prevNode[dst] == -1 {
			u := queue[0]
			queue = queue[1:]
			for i, a := range adj[u] {
				if a.cap > 0 && prevNode[a.to] == -1 {
					prevNode[a.to] = u
					prevArc[a.to] = i
					queue = append(queue, a.to)
				}
			}
		}
		if prevNode[dst] == -1 {
			return flow
		}
		for v := dst; v != src; {
			u := prevNode[v]
			a := &adj[u][prevArc[v]]
			a.cap--
			adj[v][a.rev].cap++
			v = u
		}
		flow++
	}
}

// VertexConnectivity computes the exact vertex connectivity of g: the
// minimum over non-adjacent pairs (v, w) of the max number of
// vertex-disjoint paths, following the standard reduction (fix v=0
// and v in N(0)'s non-neighbors...). For a graph known to be
// vertex-transitive it suffices to fix one endpoint; pass
// assumeTransitive=true to exploit that (star graphs, hypercubes).
func VertexConnectivity(g Graph, assumeTransitive bool) int {
	n := g.Order()
	if n <= 1 {
		return 0
	}
	reg, deg := IsRegular(g)
	best := n - 1
	check := func(s, t int) {
		if k := VertexDisjointPaths(g, s, t); k < best {
			best = k
		}
	}
	isAdj := func(s, t int) bool {
		for _, w := range Neighbors(g, s) {
			if w == t {
				return true
			}
		}
		return false
	}
	sources := []int{0}
	if !assumeTransitive {
		// κ(G) = min over s in {0} ∪ N(0), t non-adjacent to s.
		sources = append(sources, Neighbors(g, 0)...)
	}
	for _, s := range sources {
		for t := 0; t < n; t++ {
			if t == s || isAdj(s, t) {
				continue
			}
			check(s, t)
			if reg && best < deg {
				return best
			}
		}
	}
	// A complete graph has no non-adjacent pair; κ = n-1.
	return best
}

package graphalg

import (
	"math/rand"
	"testing"
)

// cycle returns the n-cycle C_n.
func cycle(n int) *Adjacency {
	g := NewAdjacency(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// complete returns K_n.
func complete(n int) *Adjacency {
	g := NewAdjacency(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// path returns the path graph P_n.
func path(n int) *Adjacency {
	g := NewAdjacency(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// grid returns the a×b grid graph.
func grid(a, b int) *Adjacency {
	g := NewAdjacency(a * b)
	id := func(i, j int) int { return i*b + j }
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			if i+1 < a {
				g.AddEdge(id(i, j), id(i+1, j))
			}
			if j+1 < b {
				g.AddEdge(id(i, j), id(i, j+1))
			}
		}
	}
	return g
}

func TestBFSOnCycle(t *testing.T) {
	g := cycle(6)
	dist := BFS(g, 0)
	want := []int{0, 1, 2, 3, 2, 1}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestBFSPath(t *testing.T) {
	g := grid(3, 4)
	p := BFSPath(g, 0, 11)
	if len(p) != 6 { // distance 5 (2 down + 3 right)
		t.Fatalf("path = %v", p)
	}
	if p[0] != 0 || p[len(p)-1] != 11 {
		t.Fatalf("endpoints wrong: %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		adj := false
		for _, w := range Neighbors(g, p[i]) {
			if w == p[i+1] {
				adj = true
			}
		}
		if !adj {
			t.Fatalf("non-edge in path at %d: %v", i, p)
		}
	}
}

func TestBFSPathUnreachable(t *testing.T) {
	g := NewAdjacency(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if BFSPath(g, 0, 3) != nil {
		t.Fatalf("expected nil path across components")
	}
	if Distance(g, 0, 3) != -1 {
		t.Fatalf("expected distance -1")
	}
	if IsConnected(g) {
		t.Fatalf("disconnected graph reported connected")
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		g    Graph
		want int
	}{
		{cycle(6), 3},
		{cycle(7), 3},
		{complete(5), 1},
		{path(5), 4},
		{grid(3, 4), 5},
	}
	for i, c := range cases {
		if got := Diameter(c.g); got != c.want {
			t.Errorf("case %d: diameter = %d, want %d", i, got, c.want)
		}
	}
	// Vertex-transitive shortcut agrees on the cycle.
	if DiameterFromVertex(cycle(9)) != Diameter(cycle(9)) {
		t.Errorf("transitive diameter shortcut disagrees on C9")
	}
}

func TestEccentricityDisconnected(t *testing.T) {
	g := NewAdjacency(3)
	g.AddEdge(0, 1)
	if Eccentricity(g, 0) != -1 || Diameter(g) != -1 {
		t.Fatalf("disconnected eccentricity should be -1")
	}
}

func TestAvgDistance(t *testing.T) {
	// C4: distances from any vertex are 1,2,1 → avg 4/3.
	got := AvgDistance(cycle(4), 0)
	if got < 1.33 || got > 1.34 {
		t.Fatalf("avg = %v", got)
	}
	if AvgDistance(NewAdjacency(1), 0) != 0 {
		t.Fatalf("singleton avg should be 0")
	}
}

func TestDistanceHistogram(t *testing.T) {
	h := DistanceHistogram(cycle(6), 0)
	want := []int{1, 2, 2, 1}
	if len(h) != len(want) {
		t.Fatalf("hist = %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("hist = %v, want %v", h, want)
		}
	}
}

func TestIsRegular(t *testing.T) {
	if ok, d := IsRegular(cycle(5)); !ok || d != 2 {
		t.Fatalf("C5 should be 2-regular, got %v %d", ok, d)
	}
	if ok, _ := IsRegular(path(4)); ok {
		t.Fatalf("P4 is not regular")
	}
	if ok, d := IsRegular(NewAdjacency(0)); !ok || d != 0 {
		t.Fatalf("empty graph regularity")
	}
}

func TestNumEdges(t *testing.T) {
	if NumEdges(complete(6)) != 15 {
		t.Fatalf("K6 edges")
	}
	if NumEdges(cycle(7)) != 7 {
		t.Fatalf("C7 edges")
	}
	if NumEdges(grid(3, 4)) != 17 {
		t.Fatalf("grid edges = %d", NumEdges(grid(3, 4)))
	}
}

func TestVertexDisjointPaths(t *testing.T) {
	// C6: exactly 2 disjoint paths between opposite vertices.
	if k := VertexDisjointPaths(cycle(6), 0, 3); k != 2 {
		t.Fatalf("C6 disjoint paths = %d, want 2", k)
	}
	// K5: 4 paths between any pair (direct edge + 3 via others).
	if k := VertexDisjointPaths(complete(5), 0, 4); k != 4 {
		t.Fatalf("K5 disjoint paths = %d, want 4", k)
	}
	// P4 endpoints: 1 path.
	if k := VertexDisjointPaths(path(4), 0, 3); k != 1 {
		t.Fatalf("P4 disjoint paths = %d, want 1", k)
	}
	// Two components: 0 paths.
	g := NewAdjacency(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if k := VertexDisjointPaths(g, 0, 2); k != 0 {
		t.Fatalf("cross-component paths = %d, want 0", k)
	}
}

func TestVertexConnectivity(t *testing.T) {
	cases := []struct {
		g    Graph
		want int
	}{
		{cycle(8), 2},
		{path(5), 1},
		{complete(5), 4},
		{grid(3, 3), 2},
	}
	for i, c := range cases {
		if got := VertexConnectivity(c.g, false); got != c.want {
			t.Errorf("case %d: connectivity = %d, want %d", i, got, c.want)
		}
	}
	// The hypercube Q3 is vertex-transitive with κ = 3.
	q3 := NewAdjacency(8)
	for v := 0; v < 8; v++ {
		for b := 0; b < 3; b++ {
			if w := v ^ (1 << b); v < w {
				q3.AddEdge(v, w)
			}
		}
	}
	if got := VertexConnectivity(q3, true); got != 3 {
		t.Errorf("Q3 connectivity = %d, want 3", got)
	}
}

func TestExcludeAndConnectedExcept(t *testing.T) {
	g := cycle(6)
	// Removing two opposite vertices disconnects C6.
	if ConnectedExcept(g, 1, 0, 3) {
		t.Fatalf("C6 minus {0,3} should be disconnected")
	}
	// Removing one vertex leaves a path: connected.
	if !ConnectedExcept(g, 1, 0) {
		t.Fatalf("C6 minus {0} should be connected")
	}
	e := NewExclude(g, 0)
	if len(Neighbors(e, 0)) != 0 {
		t.Fatalf("hole should have no neighbors")
	}
	if len(Neighbors(e, 1)) != 1 {
		t.Fatalf("neighbor filtering failed")
	}
}

func TestConnectedExceptPanicsOnHoleProbe(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	ConnectedExcept(cycle(4), 0, 0)
}

func TestVertexDisjointPathsPanicsOnEqual(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	VertexDisjointPaths(cycle(4), 1, 1)
}

func TestRandomGraphMengerSanity(t *testing.T) {
	// Menger cross-check on random graphs: removal of fewer than k
	// vertices keeps s-t connected, where k = disjoint paths.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(6)
		g := NewAdjacency(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(i, j)
				}
			}
		}
		s, t2 := 0, n-1
		k := VertexDisjointPaths(g, s, t2)
		if k == 0 {
			continue
		}
		// Remove k-1 random intermediate vertices; s and t must stay
		// connected (necessary condition of Menger).
		for rep := 0; rep < 5; rep++ {
			var holes []int
			for len(holes) < k-1 {
				h := rng.Intn(n)
				if h == s || h == t2 {
					continue
				}
				dup := false
				for _, x := range holes {
					if x == h {
						dup = true
					}
				}
				if !dup {
					holes = append(holes, h)
				}
			}
			e := NewExclude(g, holes...)
			if BFS(e, s)[t2] == -1 {
				t.Fatalf("Menger violated: k=%d holes=%v", k, holes)
			}
		}
	}
}

func BenchmarkBFSGrid(b *testing.B) {
	g := grid(50, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = BFS(g, 0)
	}
}

func BenchmarkVertexDisjointPaths(b *testing.B) {
	g := grid(20, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = VertexDisjointPaths(g, 0, 399)
	}
}

package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"

	"starmesh/internal/graphalg"
	"starmesh/internal/perm"
)

func TestBasicShape(t *testing.T) {
	m := New(2, 3, 4)
	if m.Order() != 24 || m.Dims() != 3 {
		t.Fatalf("shape wrong: %v", m)
	}
	if m.Size(0) != 2 || m.Size(1) != 3 || m.Size(2) != 4 {
		t.Fatalf("sizes wrong")
	}
	if m.String() != "2*3*4 mesh" {
		t.Fatalf("String = %q", m.String())
	}
	if m.Diameter() != 1+2+3 {
		t.Fatalf("diameter = %d", m.Diameter())
	}
}

func TestIDCoordsRoundTrip(t *testing.T) {
	m := New(3, 4, 2, 5)
	for id := 0; id < m.Order(); id++ {
		c := m.Coords(nil, id)
		if m.ID(c) != id {
			t.Fatalf("roundtrip failed at %d: %v", id, c)
		}
		for j := 0; j < m.Dims(); j++ {
			if m.Coord(id, j) != c[j] {
				t.Fatalf("Coord mismatch at %d dim %d", id, j)
			}
		}
	}
}

func TestStepAndNeighbors(t *testing.T) {
	m := New(2, 3, 4)
	// Corner (0,0,0): neighbors along +each dim only.
	n0 := graphalg.Neighbors(m, 0)
	if len(n0) != 3 {
		t.Fatalf("corner degree = %d", len(n0))
	}
	// Interior of a 3x3x3 mesh has 6 neighbors.
	c := New(3, 3, 3)
	mid := c.ID([]int{1, 1, 1})
	if d := graphalg.Degree(c, mid); d != 6 {
		t.Fatalf("interior degree = %d", d)
	}
	// Step off the edge returns -1.
	if m.Step(0, 0, -1) != -1 {
		t.Fatalf("step below 0 should be -1")
	}
	if m.Step(m.Order()-1, 2, +1) != -1 {
		t.Fatalf("step past end should be -1")
	}
	// Step is inverse of itself.
	if m.Step(m.Step(0, 1, +1), 1, -1) != 0 {
		t.Fatalf("step not invertible")
	}
}

func TestStepChangesOnlyOneCoord(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(2+rng.Intn(3), 2+rng.Intn(4), 2+rng.Intn(5))
		id := rng.Intn(m.Order())
		j := rng.Intn(3)
		dir := 1 - 2*rng.Intn(2)
		w := m.Step(id, j, dir)
		if w == -1 {
			return true
		}
		a, b := m.Coords(nil, id), m.Coords(nil, w)
		for k := range a {
			want := a[k]
			if k == j {
				want += dir
			}
			if b[k] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDnShape(t *testing.T) {
	for n := 2; n <= 8; n++ {
		m := D(n)
		if int64(m.Order()) != perm.Factorial(n) {
			t.Fatalf("|D(%d)| != %d!", n, n)
		}
		if m.Dims() != n-1 {
			t.Fatalf("D(%d) dims = %d", n, m.Dims())
		}
		for k := 1; k <= n-1; k++ {
			if m.Size(k-1) != k+1 {
				t.Fatalf("D(%d) dim %d size = %d", n, k, m.Size(k-1))
			}
		}
	}
}

func TestMaxDegreeLemma1Quantity(t *testing.T) {
	// Lemma 1: node (1,1,…,1) of D_n has degree 2n-3 (dimension 1
	// has size 2 so contributes 1; the other n-2 dims contribute 2).
	for n := 3; n <= 8; n++ {
		if got := D(n).MaxDegree(); got != 2*n-3 {
			t.Fatalf("D(%d) max degree = %d, want %d", n, got, 2*n-3)
		}
	}
	// And the all-ones node actually achieves it.
	m := D(5)
	ones := []int{1, 1, 1, 1}
	if d := graphalg.Degree(m, m.ID(ones)); d != 2*5-3 {
		t.Fatalf("degree of all-ones = %d", d)
	}
	// Degenerate sizes.
	if New(1, 1).MaxDegree() != 0 {
		t.Fatalf("trivial dims should not add degree")
	}
}

func TestManhattanDistanceMatchesBFS(t *testing.T) {
	m := New(3, 4, 2)
	dist := graphalg.BFS(m, 0)
	for id := 0; id < m.Order(); id++ {
		if m.Distance(0, id) != dist[id] {
			t.Fatalf("distance mismatch at %d", id)
		}
	}
}

func TestFigure3Mesh(t *testing.T) {
	// Figure 3: the 2*3*4 mesh, 24 nodes, 46 edges.
	m := New(2, 3, 4)
	if graphalg.NumEdges(m) != 46 {
		t.Fatalf("2*3*4 edges = %d", graphalg.NumEdges(m))
	}
	if graphalg.Diameter(m) != 6 {
		t.Fatalf("2*3*4 diameter = %d", graphalg.Diameter(m))
	}
	if !graphalg.IsConnected(m) {
		t.Fatalf("mesh disconnected")
	}
}

func TestDPointString(t *testing.T) {
	// D_4 coordinates (d_3,d_2,d_1) = (3,0,1): pt[0]=d_1=1, pt[1]=d_2=0, pt[2]=d_3=3.
	if got := DPointString([]int{1, 0, 3}); got != "(3,0,1)" {
		t.Fatalf("DPointString = %q", got)
	}
}

func TestSnakeIsHamiltonianPath(t *testing.T) {
	shapes := [][]int{{2, 3}, {2, 3, 4}, {3, 3, 3}, {5, 2}, {2, 2, 2, 2}, {4}, {2, 3, 4, 5}}
	for _, s := range shapes {
		m := New(s...)
		seen := make([]bool, m.Order())
		prev := -1
		for idx := 0; idx < m.Order(); idx++ {
			id := m.SnakeIDAt(idx)
			if seen[id] {
				t.Fatalf("%v: snake revisits %d", s, id)
			}
			seen[id] = true
			if prev != -1 && m.Distance(prev, id) != 1 {
				t.Fatalf("%v: snake step %d not adjacent (%d -> %d)", s, idx, prev, id)
			}
			prev = id
		}
	}
}

func TestSnakeRoundTrip(t *testing.T) {
	m := New(3, 4, 5)
	for id := 0; id < m.Order(); id++ {
		c := m.Coords(nil, id)
		idx := m.SnakeIndex(c)
		back := m.SnakeCoords(nil, idx)
		for j := range c {
			if back[j] != c[j] {
				t.Fatalf("snake roundtrip failed at %v: idx=%d back=%v", c, idx, back)
			}
		}
		if m.SnakeIndexOfID(id) != idx {
			t.Fatalf("SnakeIndexOfID mismatch")
		}
	}
}

func TestSnake2x3MatchesHandComputation(t *testing.T) {
	// 2 (dim0) × 3 (dim1): path (0,0),(1,0),(1,1),(0,1),(0,2),(1,2)
	// — dim1 most significant, dim0 snakes.
	m := New(2, 3)
	want := [][]int{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0, 2}, {1, 2}}
	for idx, w := range want {
		got := m.SnakeCoords(nil, idx)
		if got[0] != w[0] || got[1] != w[1] {
			t.Fatalf("snake[%d] = %v, want %v", idx, got, w)
		}
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { New() },
		func() { New(0) },
		func() { D(1) },
		func() { New(2, 2).ID([]int{1}) },
		func() { New(2, 2).ID([]int{2, 0}) },
		func() { New(2, 2).Coords(nil, 4) },
		func() { New(2, 2).SnakeIndex([]int{0}) },
		func() { New(2, 2).SnakeCoords(nil, -1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkSnakeIndex(b *testing.B) {
	m := New(2, 3, 4, 5, 6, 7, 8)
	c := m.Coords(nil, m.Order()/2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.SnakeIndex(c)
	}
}

func BenchmarkNeighbors(b *testing.B) {
	m := D(8)
	var buf []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.AppendNeighbors(buf[:0], i%m.Order())
	}
}

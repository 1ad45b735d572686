package hypercube

import (
	"testing"

	"starmesh/internal/graphalg"
)

func TestBasicProperties(t *testing.T) {
	g := New(4)
	if g.Order() != 16 || g.Dim() != 4 {
		t.Fatalf("Q4 shape wrong")
	}
	ok, d := graphalg.IsRegular(g)
	if !ok || d != 4 {
		t.Fatalf("Q4 not 4-regular")
	}
	if graphalg.Diameter(g) != 4 || g.Diameter() != 4 {
		t.Fatalf("Q4 diameter wrong")
	}
	if graphalg.NumEdges(g) != 32 {
		t.Fatalf("Q4 edges = %d", graphalg.NumEdges(g))
	}
}

func TestHammingDistanceMatchesBFS(t *testing.T) {
	g := New(5)
	dist := graphalg.BFS(g, 7)
	for v := 0; v < g.Order(); v++ {
		if Distance(7, v) != dist[v] {
			t.Fatalf("distance mismatch at %d", v)
		}
	}
}

func TestConnectivityIsMaximal(t *testing.T) {
	// Hypercubes are maximally fault tolerant too: κ(Q_d) = d.
	g := New(4)
	if k := graphalg.VertexConnectivity(g, true); k != 4 {
		t.Fatalf("Q4 connectivity = %d", k)
	}
}

func TestMinDimFor(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{{1, 0}, {2, 1}, {3, 2}, {24, 5}, {120, 7}, {720, 10}, {5040, 13}}
	for _, c := range cases {
		if got := MinDimFor(c.n); got != c.want {
			t.Errorf("MinDimFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for _, d := range []int{-1, 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", d)
				}
			}()
			New(d)
		}()
	}
}

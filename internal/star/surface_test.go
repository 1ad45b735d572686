package star

import (
	"testing"

	"starmesh/internal/graphalg"
	"starmesh/internal/perm"
)

// surfaceAreasBFS computes SurfaceAreas' histogram by breadth-first
// search: the oracle for the closed-form distance.
func surfaceAreasBFS(n int) []int64 {
	g := New(n)
	h := graphalg.DistanceHistogram(g, int(perm.Identity(n).Rank()))
	out := make([]int64, len(h))
	for i, c := range h {
		out[i] = int64(c)
	}
	return out
}

func TestSurfaceAreasMatchBFS(t *testing.T) {
	for n := 2; n <= 6; n++ {
		formula := SurfaceAreas(n)
		bfs := surfaceAreasBFS(n)
		if len(formula) < len(bfs) {
			t.Fatalf("n=%d: histogram lengths %d vs %d", n, len(formula), len(bfs))
		}
		for d := range formula {
			var want int64
			if d < len(bfs) {
				want = bfs[d]
			}
			if formula[d] != want {
				t.Fatalf("n=%d d=%d: formula %d, BFS %d", n, d, formula[d], want)
			}
		}
	}
}

func TestSurfaceAreasSumToOrder(t *testing.T) {
	for n := 2; n <= 8; n++ {
		var sum int64
		for _, c := range SurfaceAreas(n) {
			sum += c
		}
		if sum != perm.Factorial(n) {
			t.Fatalf("n=%d: histogram sums to %d", n, sum)
		}
	}
}

func TestMeanDistanceMatchesBFSAverage(t *testing.T) {
	for n := 3; n <= 6; n++ {
		g := New(n)
		want := 0.0
		// BFS average from the identity node.
		id := int(perm.Identity(n).Rank())
		want = avgFromBFS(g, id)
		got := MeanDistance(n)
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("n=%d: mean %v vs BFS %v", n, got, want)
		}
	}
}

func avgFromBFS(g *Graph, src int) float64 {
	sum, cnt := 0, 0
	for _, d := range bfsDistances(g, src) {
		sum += d
		cnt++
	}
	return float64(sum) / float64(cnt-1)
}

func bfsDistances(g *Graph, src int) []int {
	dist := make([]int, g.Order())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	var buf []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		buf = g.AppendNeighbors(buf[:0], v)
		for _, w := range buf {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func BenchmarkSurfaceAreasN8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = SurfaceAreas(8)
	}
}

func TestRecursiveBroadcastCoversAndBounded(t *testing.T) {
	for n := 2; n <= 6; n++ {
		g := New(n)
		rounds := g.RecursiveBroadcast(0)
		lo := BroadcastLowerBound(n)
		if rounds < lo {
			t.Fatalf("n=%d: %d rounds below information bound %d", n, rounds, lo)
		}
		if n >= 3 && float64(rounds) > BroadcastUpperBound(n) {
			t.Fatalf("n=%d: %d rounds above paper bound %.1f", n, rounds, BroadcastUpperBound(n))
		}
	}
}

func TestRecursiveBroadcastArbitrarySource(t *testing.T) {
	g := New(5)
	for _, src := range []int{0, 17, 119} {
		rounds := g.RecursiveBroadcast(src)
		if rounds < BroadcastLowerBound(5) {
			t.Fatalf("src=%d: rounds %d too small", src, rounds)
		}
	}
}

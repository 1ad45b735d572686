package permroute

import (
	"math/rand"
	"testing"

	"starmesh/internal/perm"
	"starmesh/internal/star"
)

func TestIdentityTraffic(t *testing.T) {
	order := int(perm.Factorial(4))
	dest := make([]int, order)
	for i := range dest {
		dest[i] = i
	}
	res := Route(4, dest)
	if res.Steps != 0 || res.TotalHops != 0 || res.MaxDist != 0 {
		t.Fatalf("identity traffic cost something: %+v", res)
	}
}

func TestGreedyTakesShortestPaths(t *testing.T) {
	// TotalHops must equal the sum of pairwise distances (greedy is
	// optimal per message, blocking only delays).
	for _, mk := range []func() []int{
		func() []int { return ReversalDest(24) },
		func() []int { return RandomDest(24, 7) },
		func() []int { return InverseDest(4) },
		func() []int { return ShiftDest(24) },
	} {
		dest := mk()
		want := 0
		perm.All(4, func(p perm.Perm) bool {
			want += star.Distance(p, perm.Unrank(4, int64(dest[p.Rank()])))
			return true
		})
		res := Route(4, dest)
		if res.TotalHops != want {
			t.Fatalf("hops %d != Σ distances %d", res.TotalHops, want)
		}
		if res.Steps < res.MaxDist {
			t.Fatalf("steps %d below distance lower bound %d", res.Steps, res.MaxDist)
		}
	}
}

func TestAllPatternsDeliver(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		order := int(perm.Factorial(n))
		patterns := map[string][]int{
			"random":   RandomDest(order, 42),
			"reversal": ReversalDest(order),
			"inverse":  InverseDest(n),
			"shift":    ShiftDest(order),
		}
		for name, dest := range patterns {
			res := Route(n, dest)
			if res.Messages != order {
				t.Fatalf("%s: message count wrong", name)
			}
			if res.Steps <= 0 {
				t.Fatalf("%s: no steps recorded", name)
			}
			if res.Stretch < 1 {
				t.Fatalf("%s: stretch %v < 1", name, res.Stretch)
			}
		}
	}
}

func TestDestValidation(t *testing.T) {
	cases := [][]int{
		make([]int, 5),      // wrong length for n=3 (needs 6)
		{0, 1, 2, 3, 4, 4},  // not a bijection
		{0, 1, 2, 3, 4, 99}, // out of range
		{-1, 1, 2, 3, 4, 5}, // negative
	}
	for i, dest := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			Route(3, dest)
		}()
	}
}

func TestRandomDestIsBijection(t *testing.T) {
	dest := RandomDest(120, 99)
	seen := make([]bool, 120)
	for _, d := range dest {
		if seen[d] {
			t.Fatalf("duplicate destination")
		}
		seen[d] = true
	}
	// Different seeds give different shuffles.
	other := RandomDest(120, 100)
	same := true
	for i := range dest {
		if dest[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("seeds 99 and 100 produced identical shuffles")
	}
}

func TestNextHopDecreasesDistance(t *testing.T) {
	perm.All(5, func(p perm.Perm) bool {
		dst := perm.Unrank(5, (p.Rank()*7+1)%120)
		if p.Equal(dst) {
			return true
		}
		cur, dinv := make([]uint8, 5), make([]uint8, 5)
		for i := range p {
			cur[i], dinv[dst[i]] = uint8(p[i]), uint8(i)
		}
		next := p.SwapPositions(len(p)-1, hop(cur, dinv))
		if star.Distance(next, dst) != star.Distance(p, dst)-1 {
			t.Fatalf("hop not greedy-optimal at %v -> %v", p, dst)
		}
		return true
	})
}

func BenchmarkRouteRandomN5(b *testing.B) {
	dest := RandomDest(120, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Route(5, dest)
	}
}

func TestRouteValiantDelivers(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		order := int(perm.Factorial(n))
		direct := Route(n, ReversalDest(order))
		valiant := RouteValiant(n, ReversalDest(order), 7)
		if valiant.Steps < direct.MaxDist {
			t.Fatalf("n=%d: valiant steps below distance bound", n)
		}
		if valiant.TotalHops < direct.TotalHops {
			// Two phases cannot take fewer hops than the one-phase
			// shortest-path total.
			t.Fatalf("n=%d: valiant hops %d < direct %d", n, valiant.TotalHops, direct.TotalHops)
		}
		if valiant.Messages != order {
			t.Fatalf("message count wrong")
		}
	}
}

func TestRouteValiantDeterministic(t *testing.T) {
	a := RouteValiant(4, RandomDest(24, 1), 9)
	b := RouteValiant(4, RandomDest(24, 1), 9)
	if a != b {
		t.Fatalf("valiant not deterministic: %+v vs %+v", a, b)
	}
}

// TestRouteMatchesReference runs Route and RouteValiant against the
// permutation-based router they replaced (referenceRoute below) on
// random destination bijections: every field of the result must be
// equal.
func TestRouteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{3, 4, 5} {
		order := int(perm.Factorial(n))
		for trial := 0; trial < 12; trial++ {
			dest := rng.Perm(order)
			if got, want := Route(n, dest), referenceRoute(n, dest); got != want {
				t.Fatalf("n=%d trial %d: Route %+v, reference %+v", n, trial, got, want)
			}
			seed := rng.Int63()
			if got, want := RouteValiant(n, dest, seed), referenceRouteValiant(n, dest, seed); got != want {
				t.Fatalf("n=%d trial %d: RouteValiant %+v, reference %+v", n, trial, got, want)
			}
		}
	}
}

// referenceRoute is Route as it was first written, over perm.Perm
// values: a clone per message, a link map per step and a new
// permutation per hop. It is the oracle of TestRouteMatchesReference.
func referenceRoute(n int, dest []int) Result {
	type message struct {
		cur, dst perm.Perm
		done     bool
	}
	order := int(perm.Factorial(n))
	msgs := make([]message, order)
	res := Result{Messages: order}
	perm.All(n, func(p perm.Perm) bool {
		id := int(p.Rank())
		msgs[id] = message{cur: p.Clone(), dst: perm.Unrank(n, int64(dest[id]))}
		if d := star.Distance(p, msgs[id].dst); d > res.MaxDist {
			res.MaxDist = d
		}
		return true
	})
	remaining := 0
	for i := range msgs {
		if msgs[i].cur.Equal(msgs[i].dst) {
			msgs[i].done = true
		} else {
			remaining++
		}
	}
	if remaining == 0 {
		return res
	}
	queue := make(map[int64]int)
	for step := 1; ; step++ {
		usedLink := make(map[[2]int64]bool)
		for k := range queue {
			delete(queue, k)
		}
		for i := range msgs {
			m := &msgs[i]
			if m.done {
				continue
			}
			next := referenceNextHop(m.cur, m.dst)
			link := [2]int64{m.cur.Rank(), next.Rank()}
			if usedLink[link] {
				continue
			}
			usedLink[link] = true
			m.cur = next
			res.TotalHops++
			if m.cur.Equal(m.dst) {
				m.done = true
				remaining--
			}
		}
		for i := range msgs {
			if !msgs[i].done {
				queue[msgs[i].cur.Rank()]++
			}
		}
		for _, q := range queue {
			if q > res.MaxQueue {
				res.MaxQueue = q
			}
		}
		if remaining == 0 {
			res.Steps = step
			break
		}
	}
	res.AvgDist = float64(res.TotalHops) / float64(res.Messages)
	res.Stretch = float64(res.Steps) / float64(maxInt(res.MaxDist, 1))
	return res
}

func referenceNextHop(cur, dst perm.Perm) perm.Perm {
	front := len(cur) - 1
	target := dst.Inverse()[cur[front]]
	if target != front {
		return cur.SwapPositions(front, target)
	}
	i := 0
	for cur[i] == dst[i] {
		i++
	}
	return cur.SwapPositions(front, i)
}

func referenceRouteValiant(n int, dest []int, seed int64) Result {
	order := int(perm.Factorial(n))
	sigma := RandomDest(order, seed)
	phase1 := referenceRoute(n, sigma)
	dest2 := make([]int, order)
	for i, s := range sigma {
		dest2[s] = dest[i]
	}
	phase2 := referenceRoute(n, dest2)
	combined := Result{
		Steps:     phase1.Steps + phase2.Steps,
		TotalHops: phase1.TotalHops + phase2.TotalHops,
		Messages:  order,
		MaxQueue:  max(phase1.MaxQueue, phase2.MaxQueue),
	}
	perm.All(n, func(p perm.Perm) bool {
		if d := star.Distance(p, perm.Unrank(n, int64(dest[p.Rank()]))); d > combined.MaxDist {
			combined.MaxDist = d
		}
		return true
	})
	combined.AvgDist = float64(combined.TotalHops) / float64(combined.Messages)
	combined.Stretch = float64(combined.Steps) / float64(maxInt(combined.MaxDist, 1))
	return combined
}

package star

import (
	"math"

	"starmesh/internal/graphalg"
	"starmesh/internal/perm"
)

// This file implements single-source broadcast on S_n, reproducing
// the §2 claim (property 3, from [AKER87]) that broadcasting
// completes in at most 3(n·log n − …) unit routes. We provide two
// concrete algorithms whose measured round counts are reported by
// experiment E13:
//
//   - GreedyBroadcast: SIMD-B model. In each unit route every
//     informed node may transmit to one neighbor; the greedy
//     schedule informs a distinct uninformed neighbor when one
//     exists. Rounds are bounded below by ceil(log2 n!) ≈ n·log n
//     (the informed set can at most double) and the measured value
//     sits between that bound and BroadcastUpperBound.
//
//   - SweepBroadcast: SIMD-A model. In round t every informed node
//     transmits along the same generator g_{σ(t)}, where σ cycles
//     through 1..n-1 repeatedly; the informed set is the set of
//     prefix subproducts, which reaches all of S_n after a finite
//     number of sweeps.

// BroadcastLowerBound returns ceil(log2 n!), the information-
// theoretic minimum number of single-port rounds.
func BroadcastLowerBound(n int) int {
	lg := 0.0
	for i := 2; i <= n; i++ {
		lg += math.Log2(float64(i))
	}
	return int(math.Ceil(lg - 1e-9))
}

// BroadcastUpperBound returns 3·n·log2(n), the paper's §2 bound on
// broadcast unit routes (stated as "at most 3(n log n − 3/2)").
func BroadcastUpperBound(n int) float64 {
	return 3 * (float64(n)*math.Log2(float64(n)) - 1.5)
}

// GreedyBroadcast simulates the SIMD-B greedy broadcast from the
// given source vertex id and returns the number of unit routes until
// every node is informed.
func (g *Graph) GreedyBroadcast(source int) int {
	return GreedyFlood(g, source, func([]int) {})
}

// GreedyFlood runs the greedy SIMD-B broadcast schedule on g from
// source and returns its number of rounds. In each round every node
// informed before that round sends to its first uninformed neighbour
// in g's neighbour order; nodes informed within the round stay
// silent until the next one, and marking a target at once keeps two
// senders from spending a round on the same node. send receives each
// round's choices: port[v] is the index of v's target in its
// neighbour list, or -1 where v stays silent (on the star graph the
// index is the generator, i.e. the port). The slice is reused from
// round to round.
func GreedyFlood(g graphalg.Graph, source int, send func(port []int)) int {
	order := g.Order()
	// informedAt[v] = round in which v learned the message, or -1.
	informedAt := make([]int, order)
	for i := range informedAt {
		informedAt[i] = -1
	}
	informedAt[source] = 0
	port := make([]int, order)
	count := 1
	round := 0
	var buf []int
	for count < order {
		round++
		progressed := false
		for v := 0; v < order; v++ {
			port[v] = -1
			if informedAt[v] < 0 || informedAt[v] >= round {
				continue
			}
			buf = g.AppendNeighbors(buf[:0], v)
			for i, w := range buf {
				if informedAt[w] == -1 {
					informedAt[w] = round
					port[v] = i
					count++
					progressed = true
					break // one transmission per node per round
				}
			}
		}
		if !progressed {
			panic("star: broadcast stalled") // impossible on a connected graph
		}
		send(port)
	}
	return round
}

// SweepBroadcast simulates the SIMD-A broadcast in which round t
// uses generator (t mod (n-1)) for all informed nodes, starting from
// the identity node. It returns the number of unit routes until all
// n! nodes are informed.
func SweepBroadcast(n int) int {
	order := int(perm.Factorial(n))
	informed := make([]bool, order)
	id := perm.Identity(n)
	informed[id.Rank()] = true
	count := 1
	rounds := 0
	front := n - 1
	for count < order {
		gen := rounds % (n - 1)
		rounds++
		// Apply the generator to every informed node; union.
		var newly []int64
		for v := 0; v < order; v++ {
			if !informed[v] {
				continue
			}
			p := perm.Unrank(n, int64(v))
			p[front], p[gen] = p[gen], p[front]
			r := p.Rank()
			if !informed[r] {
				newly = append(newly, r)
			}
		}
		for _, r := range newly {
			if !informed[r] {
				informed[r] = true
				count++
			}
		}
		if rounds > 10*order {
			panic("star: sweep broadcast did not converge")
		}
	}
	return rounds
}

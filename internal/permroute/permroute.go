// Package permroute simulates oblivious point-to-point routing of
// full permutation traffic on the star graph: every PE holds one
// message destined to a distinct PE, messages advance along their
// greedy shortest paths, and links carry at most one message per
// unit route in each direction. This quantifies how the embedding's
// structured traffic (Theorem 6: 3 routes, zero queueing) compares
// with arbitrary traffic, where queueing is unavoidable.
package permroute

import (
	"fmt"

	"starmesh/internal/perm"
)

// Result summarizes one routing run.
type Result struct {
	Steps     int     // unit routes until the last delivery
	MaxDist   int     // max shortest-path distance (lower bound on Steps)
	TotalHops int     // hops actually taken (= Σ distances; greedy is shortest-path)
	AvgDist   float64 // TotalHops / messages
	MaxQueue  int     // peak number of messages waiting at one node
	Messages  int
	Stretch   float64 // Steps / MaxDist (queueing overhead)
}

// Route delivers one message from every node i to node dest[i]
// (dest must be a bijection over vertex ids) and returns the
// measured costs. Greedy rule per message per step: take the next
// hop of star.Route's optimal policy; a directed link carries at
// most one message per step, and within a step messages claim links
// in source-rank order; messages blocked on a busy link wait.
func Route(n int, dest []int) Result {
	return newRouter(n).route(dest)
}

// router holds a routing run's state in flat arrays, indexed by
// message (the rank of its source node) or by node rank; RouteValiant
// runs both of its phases on one. A directed link is the rank of its
// tail times n plus the position the hop swaps with the front, and a
// link or a node counts as used in a step when its stamp equals the
// step's clock value, so no step clears anything.
type router struct {
	n, order int
	// perms[r·n:(r+1)·n] is the permutation of rank r, cur the one a
	// message sits at, dinv the inverse of its destination's.
	perms, cur, dinv []uint8
	scratch          []uint8 // n bytes for distance
	node             []int32 // the rank a message sits at
	linkStamp        []int32 // per directed link
	queued, qStamp   []int32 // per node: waiting messages
	clock            int32
}

func newRouter(n int) *router {
	order := int(perm.Factorial(n))
	syms := make([]uint8, 3*order*n+n)
	ints := make([]int32, order*(n+3))
	r := &router{
		n: n, order: order,
		perms:     syms[:order*n],
		cur:       syms[order*n : 2*order*n],
		dinv:      syms[2*order*n : 3*order*n],
		scratch:   syms[3*order*n:],
		node:      ints[:order],
		linkStamp: ints[order : order*(n+1)],
		queued:    ints[order*(n+1) : order*(n+2)],
		qStamp:    ints[order*(n+2):],
	}
	// Every permutation in lexicographic order, so the r-th is the one
	// of rank r.
	p := r.perms[:n]
	for i := range p {
		p[i] = uint8(i)
	}
	for rank := 1; rank < order; rank++ {
		q := r.perms[rank*n : (rank+1)*n]
		copy(q, p)
		nextPerm(q)
		p = q
	}
	return r
}

// nextPerm steps p to its lexicographic successor; p is not the last.
func nextPerm(p []uint8) {
	i := len(p) - 2
	for p[i] >= p[i+1] {
		i--
	}
	j := len(p) - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for l, r := i+1, len(p)-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
}

// rankOf returns the lexicographic rank of p, as perm.Perm.Rank does.
func rankOf(p []uint8) int32 {
	n := len(p)
	rank := int32(0)
	for i := 0; i < n; i++ {
		smaller := int32(0)
		for j := i + 1; j < n; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		rank = rank*int32(n-i) + smaller
	}
	return rank
}

// distance returns star.Distance between the permutation p and the
// one whose inverse is qinv: the distance of qinv∘p to the identity,
// m + c (m symbols out of place, c cycles of length at least 2), less
// 2 when the front symbol is out of place.
func (r *router) distance(p, qinv []uint8) int {
	rho, seen := r.scratch, 0
	for i, s := range p {
		rho[i] = qinv[s]
	}
	moved, cycles := 0, 0
	for i := range rho {
		if int(rho[i]) == i || seen&(1<<i) != 0 {
			continue
		}
		cycles++
		for j := i; seen&(1<<j) == 0; j = int(rho[j]) {
			seen |= 1 << j
			moved++
		}
	}
	if moved == 0 {
		return 0
	}
	front := len(rho) - 1
	if int(rho[front]) == front {
		return moved + cycles
	}
	return moved + cycles - 2
}

// hop returns the position whose symbol the next greedy hop from cur
// toward the destination with inverse dinv swaps with the front
// (cur is not the destination): the front symbol's home if it is
// displaced, else the first displaced position.
func hop(cur, dinv []uint8) int {
	front := len(cur) - 1
	if target := int(dinv[cur[front]]); target != front {
		return target
	}
	i := 0
	for int(dinv[cur[i]]) == i {
		i++
	}
	return i
}

// route runs one permutation routing of dest on r.
func (r *router) route(dest []int) Result {
	n, order := r.n, r.order
	if len(dest) != order {
		panic(fmt.Sprintf("permroute: dest has %d entries, want %d", len(dest), order))
	}
	// A fresh clock value marks the destinations seen so far.
	r.clock++
	for _, d := range dest {
		if d < 0 || d >= order || r.qStamp[d] == r.clock {
			panic("permroute: dest is not a bijection")
		}
		r.qStamp[d] = r.clock
	}
	res := Result{Messages: order}
	remaining := 0
	for i, d := range dest {
		r.node[i] = int32(i)
		copy(r.cur[i*n:(i+1)*n], r.perms[i*n:(i+1)*n])
		dinv, q := r.dinv[i*n:(i+1)*n], r.perms[d*n:(d+1)*n]
		for pos, s := range q {
			dinv[s] = uint8(pos)
		}
		if dist := r.distance(r.cur[i*n:(i+1)*n], dinv); dist > res.MaxDist {
			res.MaxDist = dist
		}
		// Messages whose source equals destination are done at once.
		if d != i {
			remaining++
		}
	}
	if remaining == 0 {
		return res
	}
	// Synchronous steps.
	limit := 20 * (res.MaxDist + 1) * 10
	for step := 1; ; step++ {
		if step > limit {
			panic("permroute: routing did not converge (livelock?)")
		}
		r.clock++
		moved := false
		for i, d := range dest {
			at := r.node[i]
			if int(at) == d {
				continue
			}
			cur := r.cur[i*n : (i+1)*n]
			pos := hop(cur, r.dinv[i*n:(i+1)*n])
			link := int(at)*n + pos
			if r.linkStamp[link] == r.clock {
				continue // link busy this step; wait
			}
			r.linkStamp[link] = r.clock
			front := n - 1
			cur[front], cur[pos] = cur[pos], cur[front]
			r.node[i] = rankOf(cur)
			res.TotalHops++
			moved = true
			if int(r.node[i]) == d {
				remaining--
			}
		}
		// Record queueing pressure.
		for i, d := range dest {
			at := r.node[i]
			if int(at) == d {
				continue
			}
			if r.qStamp[at] != r.clock {
				r.qStamp[at], r.queued[at] = r.clock, 0
			}
			r.queued[at]++
			if q := int(r.queued[at]); q > res.MaxQueue {
				res.MaxQueue = q
			}
		}
		if remaining == 0 {
			res.Steps = step
			break
		}
		if !moved {
			panic("permroute: deadlock")
		}
	}
	res.AvgDist = float64(res.TotalHops) / float64(res.Messages)
	res.Stretch = float64(res.Steps) / float64(maxInt(res.MaxDist, 1))
	return res
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Patterns ----------------------------------------------------------

// RandomDest returns a pseudo-random destination bijection from a
// linear congruential walk (deterministic per seed).
func RandomDest(order int, seed int64) []int {
	dest := make([]int, order)
	for i := range dest {
		dest[i] = i
	}
	x := uint64(seed)
	for i := order - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int(x % uint64(i+1))
		dest[i], dest[j] = dest[j], dest[i]
	}
	return dest
}

// ReversalDest sends rank r to rank order-1-r.
func ReversalDest(order int) []int {
	dest := make([]int, order)
	for i := range dest {
		dest[i] = order - 1 - i
	}
	return dest
}

// InverseDest sends node π to node π⁻¹ (a natural "transpose" for
// permutation networks).
func InverseDest(n int) []int {
	order := int(perm.Factorial(n))
	dest := make([]int, order)
	perm.All(n, func(p perm.Perm) bool {
		dest[p.Rank()] = int(p.Inverse().Rank())
		return true
	})
	return dest
}

// ShiftDest sends rank r to rank (r+1) mod order.
func ShiftDest(order int) []int {
	dest := make([]int, order)
	for i := range dest {
		dest[i] = (i + 1) % order
	}
	return dest
}

// Valiant routing: two-phase randomized routing. Each message first
// travels to a random intermediate node (here a random bijection, so
// both phases are permutation routings) and then to its true
// destination. Valiant's scheme trades a factor ~2 in distance for
// immunity against adversarial patterns; RouteValiant measures that
// trade-off on the star graph.

// RouteValiant routes dest in two phases through a seeded random
// intermediate bijection and returns the combined result (steps and
// hops are summed; MaxDist is the direct-pattern bound for
// comparison with Route).
func RouteValiant(n int, dest []int, seed int64) Result {
	r := newRouter(n)
	order := r.order
	sigma := RandomDest(order, seed)
	phase1 := r.route(sigma)
	// Phase 2: message originally from i now sits at sigma[i] and
	// must reach dest[i].
	dest2 := make([]int, order)
	for i, s := range sigma {
		dest2[s] = dest[i]
	}
	phase2 := r.route(dest2)
	combined := Result{
		Steps:     phase1.Steps + phase2.Steps,
		TotalHops: phase1.TotalHops + phase2.TotalHops,
		Messages:  order,
	}
	// Report the direct pattern's distance bound so stretch is
	// comparable with the one-phase router.
	dinv := r.dinv[:n]
	for i, d := range dest {
		for pos, s := range r.perms[d*n : (d+1)*n] {
			dinv[s] = uint8(pos)
		}
		if dist := r.distance(r.perms[i*n:(i+1)*n], dinv); dist > combined.MaxDist {
			combined.MaxDist = dist
		}
	}
	if phase1.MaxQueue > phase2.MaxQueue {
		combined.MaxQueue = phase1.MaxQueue
	} else {
		combined.MaxQueue = phase2.MaxQueue
	}
	combined.AvgDist = float64(combined.TotalHops) / float64(combined.Messages)
	combined.Stretch = float64(combined.Steps) / float64(maxInt(combined.MaxDist, 1))
	return combined
}

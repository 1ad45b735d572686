// Package starsim runs SIMD programs on a star-graph machine and
// implements the paper's headline capability (Theorem 6): one unit
// route of the SIMD-A mesh D_n is performed in at most 3 unit routes
// of the SIMD-B star graph S_n, without any two messages ever
// blocking each other (Lemma 5).
//
// The schedule follows the Lemma-2 path structure (g_k, g_t, g_k):
// for a mesh route along dimension k < n-1,
//
//	step 1: every mesh-interior node π transmits through port k
//	        (a single common generator — even SIMD-A legal);
//	step 2: every intermediate X1 forwards through the partner port
//	        t computed from its own address (X1·g_k = π, so X1 can
//	        recompute the original sender locally);
//	step 3: every intermediate Y1 forwards through port k; Y1
//	        recognizes itself because Y1·g_k is a route destination.
//
// For k = n-1 the exchanged symbol sits at the front and a single
// SIMD-B route (each node through its partner port) completes the
// move. All role tests are local functions of the PE's own
// permutation, as the SIMD model requires: the control unit only
// broadcasts (k, dir).
package starsim

import (
	"fmt"

	"starmesh/internal/core"
	"starmesh/internal/perm"
	"starmesh/internal/simd"
	"starmesh/internal/star"
)

// Topo adapts S_n to simd.Topology with a precomputed neighbor
// table; port i applies generator g_i (swap front with position i).
type Topo struct {
	n     int
	table [][]int32
}

// NewTopo builds the topology of S_n, materializing all n!·(n-1)
// neighbor links.
func NewTopo(n int) *Topo {
	order := int(perm.Factorial(n))
	t := &Topo{n: n, table: make([][]int32, order)}
	flat := make([]int32, order*(n-1))
	front := n - 1
	perm.All(n, func(p perm.Perm) bool {
		id := int(p.Rank())
		row := flat[id*(n-1) : (id+1)*(n-1)]
		for i := 0; i < front; i++ {
			p[front], p[i] = p[i], p[front]
			row[i] = int32(p.Rank())
			p[front], p[i] = p[i], p[front]
		}
		t.table[id] = row
		return true
	})
	return t
}

// N returns the star degree parameter.
func (t *Topo) N() int { return t.n }

// Size implements simd.Topology.
func (t *Topo) Size() int { return len(t.table) }

// Ports implements simd.Topology.
func (t *Topo) Ports() int { return t.n - 1 }

// Neighbor implements simd.Topology.
func (t *Topo) Neighbor(pe, port int) int { return int(t.table[pe][port]) }

// Order returns n!, the number of vertices, so that a Topo serves as
// a graphalg.Graph over the same ids as star.Graph.
func (t *Topo) Order() int { return len(t.table) }

// AppendNeighbors lists the neighbours of v in generator order, the
// order star.Graph.AppendNeighbors uses, from the table instead of by
// unranking v.
func (t *Topo) AppendNeighbors(buf []int, v int) []int {
	for _, w := range t.table[v] {
		buf = append(buf, int(w))
	}
	return buf
}

// PlanKey implements simd.PlanKeyer: every S_n has the same shape,
// so compiled route plans are shared across machines of equal n.
func (t *Topo) PlanKey() string { return fmt.Sprintf("star:%d", t.n) }

// Machine is a star-connected SIMD computer hosting the embedded
// mesh D_n.
type Machine struct {
	*simd.Machine
	N int
	// perms caches the permutation of every PE id.
	perms []perm.Perm
	topo  *Topo
	// tables caches, per (k, dir), the mesh-neighbor id and partner
	// port of every PE — the Lemma-2/3 role data every unit route
	// needs. Built lazily through Apply and keyed by topology only,
	// so it never invalidates. SetRouteCache(false) bypasses it.
	tables  []*routeTable
	noCache bool
	// murPlans/bcastPlans memoize compiled route plans per schedule,
	// skipping the shared-cache key formatting and lookup on the hot
	// path. The plans themselves live in simd.SharedPlans and are
	// shared across machines of the same n.
	murPlans   map[murKey]*simd.Plan
	bcastPlans map[bcastKey]*simd.Plan
	// meshIDs lazily caches, per PE, the mesh node the embedding
	// assigns to it (core.UnmapID) — a pure function of n, so it
	// survives Reset and is amortized across the jobs of a reused
	// machine.
	meshIDs []int
}

// murKey identifies an unmasked mesh-unit-route schedule. modelA
// selects the SIMD-A schedule; generic records which role source
// (the cached Lemma-3 tables or tables rebuilt from the role tests)
// the plan was compiled from, so toggling SetRouteCache never
// replays a plan recorded through the other path.
type murKey struct {
	k, dir   int
	src, dst string
	modelA   bool
	generic  bool
}

// bcastKey identifies a broadcast schedule.
type bcastKey struct {
	src, dst string
	source   int
}

// routeTable holds the closed-form Lemma-3 data for one (k, dir).
type routeTable struct {
	nbr   []int32 // star id of the (k,dir) mesh neighbor, -1 at the boundary
	pport []int8  // Partner(perm(pe), k, dir), -1 at the boundary
}

// New builds the machine for S_n. Options configure the simd machine
// (see simd.New); all of the machine's port and mask functions are
// pure, as plan recording requires.
func New(n int, opts ...simd.Option) *Machine {
	topo := NewTopo(n)
	m := &Machine{Machine: simd.New(topo, opts...), N: n, topo: topo}
	m.perms = make([]perm.Perm, topo.Size())
	perm.All(n, func(p perm.Perm) bool {
		m.perms[p.Rank()] = p.Clone()
		return true
	})
	m.tables = make([]*routeTable, 2*(n-1))
	m.murPlans = make(map[murKey]*simd.Plan)
	m.bcastPlans = make(map[bcastKey]*simd.Plan)
	// Declare the schedule scratch registers once, here, so the
	// per-route helpers never pay the EnsureReg map lookups on the
	// hot path.
	m.AddReg(regT1)
	m.AddReg(regT2)
	m.AddReg(regAT1)
	m.AddReg(regAT2)
	return m
}

// Scratch registers of the unit-route schedules (SIMD-B, SIMD-A),
// declared at machine construction.
const (
	regT1  = "__mur_t1"
	regT2  = "__mur_t2"
	regAT1 = "__mura_t1"
	regAT2 = "__mura_t2"
)

// SetRouteCache enables or disables the cached per-(k,dir) route
// tables. The cache is on by default; disabling it makes every unit
// route rebuild the tables it reads from the role tests
// (core.Partner and core.Neighbor on each PE's permutation) — the
// reference the cache is tested against. With plans enabled (the
// default) the toggle selects which role source *records* — plans
// compiled from either are kept apart and replay identically — so
// closure-resolution measurements must also disable plans
// (simd.WithPlans(false)).
func (m *Machine) SetRouteCache(enabled bool) { m.noCache = !enabled }

// routeTableFor returns (building on first use) the Lemma-3 table
// for dimension k and direction dir.
func (m *Machine) routeTableFor(k, dir int) *routeTable {
	idx := 2 * (k - 1)
	if dir < 0 {
		idx++
	}
	if t := m.tables[idx]; t != nil {
		return t
	}
	t := &routeTable{
		nbr:   make([]int32, len(m.perms)),
		pport: make([]int8, len(m.perms)),
	}
	// Built through Apply, which marks a plan under recording impure
	// (see BuildRouteTables).
	m.Apply(func(pe int) {
		p := m.perms[pe]
		tp := core.Partner(p, k, dir)
		t.pport[pe] = int8(tp)
		if tp == -1 {
			t.nbr[pe] = -1
			return
		}
		t.nbr[pe] = int32(p.SwapPositions(k, tp).Rank())
	})
	m.tables[idx] = t
	return t
}

// referenceTable builds the (k, dir) table from the role tests,
// core.Partner and core.Neighbor, for one route and never stores
// it. A plain loop rather than Apply, so a plan recorded through the
// reference stays pure.
func (m *Machine) referenceTable(k, dir int) *routeTable {
	t := &routeTable{
		nbr:   make([]int32, len(m.perms)),
		pport: make([]int8, len(m.perms)),
	}
	for pe, p := range m.perms {
		t.pport[pe] = int8(core.Partner(p, k, dir))
		t.nbr[pe] = -1
		if q, ok := core.Neighbor(p, k, dir); ok {
			t.nbr[pe] = int32(q.Rank())
		}
	}
	return t
}

// roleTables returns the tables a (k, dir) unit route reads: fwd for
// (k, dir) and, when k < n-1, rev for (k, -dir) — the cached ones, or
// with the route cache off, reference tables built for this route.
func (m *Machine) roleTables(k, dir int) (fwd, rev *routeTable) {
	table := m.routeTableFor
	if m.noCache {
		table = m.referenceTable
	}
	fwd = table(k, dir)
	if k < m.N-1 {
		rev = table(k, -dir)
	}
	return fwd, rev
}

// BuildRouteTables builds every (k, dir) Lemma-3 route table not
// built yet. Masked unit routes build them lazily through Apply, which
// marks a plan under recording impure, so callers that record masked
// routes into a plan build the tables first.
func (m *Machine) BuildRouteTables() {
	if m.noCache {
		return
	}
	for k := 1; k < m.N; k++ {
		m.routeTableFor(k, +1)
		m.routeTableFor(k, -1)
	}
}

// MeshIDs returns, indexed by star PE id, the mesh node of D_n that
// the paper's embedding places on that PE (core.UnmapID) — the
// vertex map SnakeSortStar and the workload scenarios need. The
// O(n!·n²) conversion sweep runs once per machine, through Apply,
// and the cached slice is kept across Reset: reused machines never
// pay it again. Do not mutate the returned slice.
func (m *Machine) MeshIDs() []int {
	if m.meshIDs == nil {
		ids := make([]int, m.Size())
		m.Apply(func(pe int) { ids[pe] = core.UnmapID(m.N, pe) })
		m.meshIDs = ids
	}
	return m.meshIDs
}

// Perm returns the permutation of PE pe (do not mutate).
func (m *Machine) Perm(pe int) perm.Perm { return m.perms[pe] }

// MeshUnitRoute simulates one SIMD-A unit route of the embedded mesh
// D_n along dimension k (1 ≤ k ≤ n-1) in direction dir (±1): for
// every mesh node with a (k,dir)-neighbor, dst at the neighbor's
// star PE receives src of the node's star PE. Other PEs' dst is
// unchanged. Returns the number of star unit routes used (1 or 3)
// and the receive conflicts observed (always 0, per Lemma 5). It
// panics if k or dir is out of range.
func (m *Machine) MeshUnitRoute(src, dst string, k, dir int) (routes, conflicts int) {
	return m.meshRoute(src, dst, k, dir, nil, false)
}

// MaskedMeshUnitRoute is MeshUnitRoute restricted to the mesh nodes
// selected by mask (an instruction mask in the paper's sense,
// evaluated at the sending PE; nil selects every node). The schedule
// moves the selected subset of messages, which stays conflict-free
// because it is a subset of the full Lemma-5 schedule.
func (m *Machine) MaskedMeshUnitRoute(src, dst string, k, dir int, mask func(pe int) bool) (routes, conflicts int) {
	return m.meshRoute(src, dst, k, dir, mask, false)
}

// MeshUnitRouteModelA performs the same data movement on a SIMD-A
// star machine: steps 1 and 3 are already single-generator routes,
// and the partner-port step is serialized into one route per
// generator some PE uses. Returns the number of SIMD-A unit routes.
// It panics if k or dir is out of range.
func (m *Machine) MeshUnitRouteModelA(src, dst string, k, dir int) int {
	routes, _ := m.meshRoute(src, dst, k, dir, nil, true)
	return routes
}

// MaskedMeshUnitRouteModelA is MeshUnitRouteModelA restricted to the
// mesh nodes selected by mask (nil = all).
func (m *Machine) MaskedMeshUnitRouteModelA(src, dst string, k, dir int, mask func(pe int) bool) int {
	routes, _ := m.meshRoute(src, dst, k, dir, mask, true)
	return routes
}

// meshRoute is the entry of all four unit-route methods: it checks
// (k, dir), runs masked routes straight through the schedule, and
// runs unmasked ones through a compiled plan, recorded once per
// schedule and shared across machines of the same n.
func (m *Machine) meshRoute(src, dst string, k, dir int, mask func(pe int) bool, modelA bool) (routes, conflicts int) {
	if k < 1 || k > m.N-1 {
		panic(fmt.Sprintf("starsim: dimension %d out of range", k))
	}
	if dir != 1 && dir != -1 {
		panic("starsim: dir must be ±1")
	}
	if mask != nil {
		return m.lemma5(src, dst, k, dir, mask, modelA)
	}
	// Warm the cached tables outside the recording: their lazy build
	// runs through Apply, which would mark the plan impure.
	if !m.noCache {
		m.roleTables(k, dir)
	}
	mk := murKey{k: k, dir: dir, src: src, dst: dst, modelA: modelA, generic: m.noCache}
	return simd.RunMemoized(m.Machine, simd.SharedPlans, m.murPlans, mk,
		func() string {
			prefix := "mur"
			if modelA {
				prefix = "mura"
			}
			return fmt.Sprintf("%s:%d:%d:%s:%s:generic=%t", prefix, k, dir, src, dst, m.noCache)
		},
		func() { m.lemma5(src, dst, k, dir, nil, modelA) })
}

// lemma5 is Lemma 5's schedule for the mesh nodes mask selects (nil =
// all). For k < n-1: step 1, every sender π transmits through port
// k; step 2, every X1 forwards through the partner port of
// π = X1·g_k; step 3, every Y1 forwards through port k when Y1·g_k
// is a route destination. For k = n-1 the partner-port step alone
// completes the move. Every role test is a table lookup; step 3's
// interior test is implicit — a PE whose (k,-dir) mesh neighbor
// exists is a legal sender along (k,+dir), because mesh neighbor
// moves invert.
func (m *Machine) lemma5(src, dst string, k, dir int, mask func(pe int) bool, modelA bool) (routes, conflicts int) {
	fwd, rev := m.roleTables(k, dir)
	sends := func(pe int) bool {
		return fwd.nbr[pe] != -1 && (mask == nil || mask(pe))
	}
	if k == m.N-1 {
		return m.sendPorts(src, dst, func(pe int) int {
			if !sends(pe) {
				return -1
			}
			return int(fwd.pport[pe])
		}, modelA)
	}
	t1, t2 := regT1, regT2
	if modelA {
		t1, t2 = regAT1, regAT2
	}
	c1 := m.sendPort(src, t1, k, func(pe int) int {
		if !sends(pe) {
			return -1
		}
		return k
	}, modelA)
	r2, c2 := m.sendPorts(t1, t2, func(pe int) int {
		ni := m.topo.table[pe][k]
		if !sends(int(ni)) {
			return -1
		}
		return int(fwd.pport[ni])
	}, modelA)
	c3 := m.sendPort(t2, dst, k, func(pe int) int {
		sender := rev.nbr[m.topo.table[pe][k]]
		if sender == -1 || (mask != nil && !mask(int(sender))) {
			return -1
		}
		return k
	}, modelA)
	return r2 + 2, c1 + c2 + c3
}

// sendPort is one unit route through generator port from every PE
// whose portOf is port (the others return -1): a SIMD-A route, or
// the same moves as a SIMD-B one. It counts as one route even when
// no PE sends.
func (m *Machine) sendPort(src, dst string, port int, portOf simd.PortFunc, modelA bool) int {
	if modelA {
		return m.RouteA(src, dst, port, func(pe int) bool { return portOf(pe) >= 0 })
	}
	return m.RouteB(src, dst, portOf)
}

// sendPorts moves every PE's datum through the PE's own port (-1 =
// none): one SIMD-B route, or on SIMD-A one route per generator some
// PE uses, in ascending generator order.
func (m *Machine) sendPorts(src, dst string, portOf simd.PortFunc, modelA bool) (routes, conflicts int) {
	if !modelA {
		return 1, m.RouteB(src, dst, portOf)
	}
	var used uint64
	for pe := range m.perms {
		if p := portOf(pe); p >= 0 {
			used |= 1 << p
		}
	}
	for g := range m.N - 1 {
		if used&(1<<g) != 0 {
			conflicts += m.RouteA(src, dst, g, func(pe int) bool { return portOf(pe) == g })
			routes++
		}
	}
	return routes, conflicts
}

// Broadcast floods register src from PE source to all PEs using
// greedy SIMD-B rounds, writing into dst on every PE (including the
// source). Returns the number of unit routes. This is the measured
// counterpart of the §2 broadcast bound 3(n·log n − 3/2); the rounds
// are star.GreedyFlood's over the neighbour table, so the count
// equals star.GreedyBroadcast's on the bare graph.
func (m *Machine) Broadcast(src, dst string, source int) int {
	sr := m.Reg(src)
	dr := m.Reg(dst)
	// The source's self-copy is a direct register write the plan
	// recorder cannot capture; a plan recorded over a Broadcast must
	// therefore be rejected (the planned rounds below keep the write
	// outside their recorded region instead).
	m.MarkImpure()
	dr[source] = sr[source]
	// The flood's construction (informedAt bookkeeping, neighbour
	// scans) is purely topological, so with plans on it runs only at
	// record time; replay walks the compiled rounds directly.
	routes, _ := simd.RunMemoized(m.Machine, simd.SharedPlans, m.bcastPlans,
		bcastKey{src: src, dst: dst, source: source},
		func() string { return fmt.Sprintf("bcast:%s:%s:%d", src, dst, source) },
		func() {
			star.GreedyFlood(m.topo, source, func(port []int) {
				m.RouteB(dst, dst, func(pe int) int { return port[pe] })
			})
		})
	return routes
}

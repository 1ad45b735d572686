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
	// murPlans/muraPlans/bcastPlans memoize compiled route plans per
	// schedule, skipping the shared-cache key formatting and lookup
	// on the hot path. The plans themselves live in simd.SharedPlans
	// and are shared across machines of the same n.
	murPlans   map[murKey]*simd.Plan
	muraPlans  map[murKey]*simd.Plan
	bcastPlans map[bcastKey]*simd.Plan
	// meshIDs lazily caches, per PE, the mesh node the embedding
	// assigns to it (core.UnmapID) — a pure function of n, so it
	// survives Reset and is amortized across the jobs of a reused
	// machine.
	meshIDs []int
}

// murKey identifies a mesh-unit-route schedule (unmasked). generic
// records which closure path (Lemma-3 tables vs the original role
// tests) the plan was compiled from, so toggling SetRouteCache never
// replays a plan recorded through the other path.
type murKey struct {
	k, dir   int
	src, dst string
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
	m.muraPlans = make(map[murKey]*simd.Plan)
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

// Scratch registers of the unit-route schedules, declared at
// machine construction.
const (
	regT1  = "__mur_t1"
	regT2  = "__mur_t2"
	regAT1 = "__mura_t1"
	regAT2 = "__mura_t2"
)

// SetRouteCache enables or disables the per-(k,dir) route tables.
// The cache is on by default; disabling it re-routes every unit
// route through the original closure-per-PE role tests (the
// reference implementation the cache is tested against, and the
// baseline the engine benchmarks measure). With plans enabled (the
// default) the toggle selects which closure path *records* — plans
// compiled from either path are kept apart and replay identically —
// so closure-resolution measurements must also disable plans
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
// and the receive conflicts observed (always 0, per Lemma 5).
func (m *Machine) MeshUnitRoute(src, dst string, k, dir int) (routes, conflicts int) {
	return m.MaskedMeshUnitRoute(src, dst, k, dir, nil)
}

// MaskedMeshUnitRoute is MeshUnitRoute restricted to the mesh nodes
// selected by mask (an instruction mask in the paper's sense,
// evaluated at the sending PE; nil selects every node). The schedule
// moves the selected subset of messages, which stays conflict-free
// because it is a subset of the full Lemma-5 schedule.
func (m *Machine) MaskedMeshUnitRoute(src, dst string, k, dir int, mask func(pe int) bool) (routes, conflicts int) {
	n := m.N
	if k < 1 || k > n-1 {
		panic(fmt.Sprintf("starsim: dimension %d out of range", k))
	}
	if dir != 1 && dir != -1 {
		panic("starsim: dir must be ±1")
	}
	if mask == nil && m.PlansEnabled() {
		return m.plannedMeshUnitRoute(src, dst, k, dir)
	}
	if !m.noCache {
		return m.maskedMeshUnitRouteCached(src, dst, k, dir, mask)
	}
	return m.maskedMeshUnitRouteGeneric(src, dst, k, dir, mask)
}

// plannedMeshUnitRoute runs the unmasked Theorem-6 schedule through
// a compiled plan: recorded once per (k, dir, src, dst) — via the
// closure path selected by SetRouteCache — then replayed as a dense
// array walk, shared across machines of the same n.
func (m *Machine) plannedMeshUnitRoute(src, dst string, k, dir int) (routes, conflicts int) {
	return m.plannedRoute(m.murPlans, "mur", src, dst, k, dir,
		func() { m.maskedMeshUnitRouteCached(src, dst, k, dir, nil) },
		func() { m.maskedMeshUnitRouteGeneric(src, dst, k, dir, nil) })
}

// plannedRoute is the shared memoized-plan shape of the unmasked
// unit-route schedules (SIMD-B and Model-A): warm the Lemma-3 tables
// outside the recording — their lazy build runs through Apply, which
// would mark the plan impure — then record or replay the closure
// path SetRouteCache selects, keeping the two paths' plans apart.
func (m *Machine) plannedRoute(memo map[murKey]*simd.Plan, prefix, src, dst string, k, dir int, cached, generic func()) (routes, conflicts int) {
	if !m.noCache {
		m.routeTableFor(k, dir)
		if k != m.N-1 {
			m.routeTableFor(k, -dir)
		}
	}
	mk := murKey{k: k, dir: dir, src: src, dst: dst, generic: m.noCache}
	return simd.RunMemoized(m.Machine, simd.SharedPlans, memo, mk,
		func() string {
			return fmt.Sprintf("%s:%d:%d:%s:%s:generic=%t", prefix, k, dir, src, dst, m.noCache)
		},
		func() {
			if m.noCache {
				generic()
			} else {
				cached()
			}
		})
}

// maskedMeshUnitRouteCached drives the Lemma-5 schedule from the
// precomputed route tables: every role test collapses to table
// lookups, avoiding the per-PE permutation clone and O(n²) rank of
// the generic path. The step-3 interior test is implicit — a PE
// whose (k,-dir) mesh neighbor exists is automatically a legal
// sender along (k,+dir), because mesh neighbor moves invert.
func (m *Machine) maskedMeshUnitRouteCached(src, dst string, k, dir int, mask func(pe int) bool) (routes, conflicts int) {
	fwd := m.routeTableFor(k, dir)
	front := m.N - 1
	sends := func(pe int) bool {
		return fwd.nbr[pe] != -1 && (mask == nil || mask(pe))
	}
	if k == front {
		c := m.RouteB(src, dst, func(pe int) int {
			if !sends(pe) {
				return -1
			}
			return int(fwd.pport[pe])
		})
		return 1, c
	}
	rev := m.routeTableFor(k, -dir)
	const t1 = regT1
	const t2 = regT2
	// Step 1: senders π through port k.
	c1 := m.RouteB(src, t1, func(pe int) int {
		if !sends(pe) {
			return -1
		}
		return k
	})
	// Step 2: X1 forwards through the partner port of π = X1·g_k,
	// looked up via X1's g_k neighbor id.
	c2 := m.RouteB(t1, t2, func(pe int) int {
		ni := int(m.topo.table[pe][k])
		if !sends(ni) {
			return -1
		}
		return int(fwd.pport[ni])
	})
	// Step 3: Y1 forwards through port k when Y1·g_k is a route
	// destination, i.e. its (k,-dir) mesh neighbor is a selected
	// sender.
	c3 := m.RouteB(t2, dst, func(pe int) int {
		ni := int(m.topo.table[pe][k])
		sender := rev.nbr[ni]
		if sender == -1 || (mask != nil && !mask(int(sender))) {
			return -1
		}
		return k
	})
	return 3, c1 + c2 + c3
}

// maskedMeshUnitRouteGeneric is the original closure-per-PE
// implementation, kept as the semantic reference for the cached
// path (and as the measured baseline of the engine benchmarks).
func (m *Machine) maskedMeshUnitRouteGeneric(src, dst string, k, dir int, mask func(pe int) bool) (routes, conflicts int) {
	n := m.N
	sends := func(pe int) bool {
		return core.Partner(m.perms[pe], k, dir) != -1 && (mask == nil || mask(pe))
	}
	front := n - 1
	if k == front {
		// Single route: every selected interior node transmits
		// through its partner port.
		c := m.RouteB(src, dst, func(pe int) int {
			if !sends(pe) {
				return -1
			}
			return core.Partner(m.perms[pe], k, dir)
		})
		return 1, c
	}
	const t1 = regT1
	const t2 = regT2
	// Step 1: senders π (selected, mesh-interior along (k,dir))
	// through port k.
	c1 := m.RouteB(src, t1, func(pe int) int {
		if !sends(pe) {
			return -1
		}
		return k
	})
	// Step 2: X1 forwards through the partner port of π = X1·g_k.
	c2 := m.RouteB(t1, t2, func(pe int) int {
		pi := m.perms[pe].SwapPositions(front, k)
		if !sends(int(pi.Rank())) {
			return -1
		}
		return core.Partner(pi, k, dir)
	})
	// Step 3: Y1 forwards through port k; Y1·g_k must be a
	// destination, i.e. its (k,-dir) mesh neighbor must be a
	// selected sender.
	c3 := m.RouteB(t2, dst, func(pe int) int {
		rho := m.perms[pe].SwapPositions(front, k)
		sender, ok := core.Neighbor(rho, k, -dir)
		if !ok || !sends(int(sender.Rank())) {
			return -1
		}
		return k
	})
	return 3, c1 + c2 + c3
}

// MeshUnitRouteModelA performs the same data movement on a SIMD-A
// star machine: steps 1 and 3 are already single-generator routes,
// and step 2 is serialized into one route per generator index
// 0..k-1 actually used. Returns the number of SIMD-A unit routes.
func (m *Machine) MeshUnitRouteModelA(src, dst string, k, dir int) int {
	return m.MaskedMeshUnitRouteModelA(src, dst, k, dir, nil)
}

// MaskedMeshUnitRouteModelA is MeshUnitRouteModelA restricted to the
// mesh nodes selected by mask (nil = all).
func (m *Machine) MaskedMeshUnitRouteModelA(src, dst string, k, dir int, mask func(pe int) bool) int {
	if mask == nil && m.PlansEnabled() {
		routes, _ := m.plannedRoute(m.muraPlans, "mura", src, dst, k, dir,
			func() { m.maskedModelACached(src, dst, k, dir, nil) },
			func() { m.maskedModelAGeneric(src, dst, k, dir, nil) })
		return routes
	}
	if !m.noCache {
		return m.maskedModelACached(src, dst, k, dir, mask)
	}
	return m.maskedModelAGeneric(src, dst, k, dir, mask)
}

// maskedModelACached is the table-driven SIMD-A schedule; the
// generator-usage scans that dominated the generic path become
// linear passes over the cached partner ports.
func (m *Machine) maskedModelACached(src, dst string, k, dir int, mask func(pe int) bool) int {
	n := m.N
	front := n - 1
	fwd := m.routeTableFor(k, dir)
	portAt := func(id int) int {
		if fwd.nbr[id] == -1 || (mask != nil && !mask(id)) {
			return -1
		}
		return int(fwd.pport[id])
	}
	if k == front {
		routes := 0
		for g := 0; g < n-1; g++ {
			used := false
			for pe := range m.perms {
				if portAt(pe) == g {
					used = true
					break
				}
			}
			if !used {
				continue
			}
			m.RouteA(src, dst, g, func(pe int) bool {
				return portAt(pe) == g
			})
			routes++
		}
		return routes
	}
	rev := m.routeTableFor(k, -dir)
	const t1 = regAT1
	const t2 = regAT2
	routes := 0
	m.RouteA(src, t1, k, func(pe int) bool {
		return portAt(pe) != -1
	})
	routes++
	for g := 0; g < k; g++ {
		used := false
		for pe := range m.perms {
			if portAt(int(m.topo.table[pe][k])) == g {
				used = true
				break
			}
		}
		if !used {
			continue
		}
		m.RouteA(t1, t2, g, func(pe int) bool {
			return portAt(int(m.topo.table[pe][k])) == g
		})
		routes++
	}
	m.RouteA(t2, dst, k, func(pe int) bool {
		sender := rev.nbr[int(m.topo.table[pe][k])]
		if sender == -1 {
			return false
		}
		return mask == nil || mask(int(sender))
	})
	routes++
	return routes
}

// maskedModelAGeneric is the original implementation, kept as the
// reference for the cached path.
func (m *Machine) maskedModelAGeneric(src, dst string, k, dir int, mask func(pe int) bool) int {
	n := m.N
	front := n - 1
	partnerPort := func(pi perm.Perm) int {
		t := core.Partner(pi, k, dir)
		if t == -1 {
			return -1
		}
		if mask != nil && !mask(int(pi.Rank())) {
			return -1
		}
		return t
	}
	if k == front {
		routes := 0
		for g := 0; g < n-1; g++ {
			used := false
			for pe := range m.perms {
				if partnerPort(m.perms[pe]) == g {
					used = true
					break
				}
			}
			if !used {
				continue
			}
			m.RouteA(src, dst, g, func(pe int) bool {
				return partnerPort(m.perms[pe]) == g
			})
			routes++
		}
		return routes
	}
	const t1 = regAT1
	const t2 = regAT2
	routes := 0
	m.RouteA(src, t1, k, func(pe int) bool {
		return partnerPort(m.perms[pe]) != -1
	})
	routes++
	for g := 0; g < k; g++ {
		used := false
		for pe := range m.perms {
			pi := m.perms[pe].SwapPositions(front, k)
			if partnerPort(pi) == g {
				used = true
				break
			}
		}
		if !used {
			continue
		}
		m.RouteA(t1, t2, g, func(pe int) bool {
			pi := m.perms[pe].SwapPositions(front, k)
			return partnerPort(pi) == g
		})
		routes++
	}
	m.RouteA(t2, dst, k, func(pe int) bool {
		rho := m.perms[pe].SwapPositions(front, k)
		sender, ok := core.Neighbor(rho, k, -dir)
		if !ok {
			return false
		}
		return mask == nil || mask(int(sender.Rank()))
	})
	routes++
	return routes
}

// Broadcast floods register src from the PE holding the identity
// permutation to all PEs using greedy SIMD-B rounds, writing into
// dst on every PE (including the source). Returns the number of unit
// routes. This is the measured counterpart of the §2 broadcast bound
// 3(n·log n − 3/2); see star.GreedyBroadcast for the round counter
// on the bare graph.
func (m *Machine) Broadcast(src, dst string, source int) int {
	sr := m.Reg(src)
	dr := m.Reg(dst)
	// The source's self-copy is a direct register write the plan
	// recorder cannot capture; a plan recorded over a Broadcast must
	// therefore be rejected (the internal planned path below keeps
	// the write outside its recorded region instead).
	m.MarkImpure()
	dr[source] = sr[source]
	if m.PlansEnabled() {
		// The greedy schedule construction (informedAt bookkeeping,
		// neighbor scans) is purely topological, so it runs only at
		// record time; replay walks the compiled rounds directly.
		routes, _ := simd.RunMemoized(m.Machine, simd.SharedPlans, m.bcastPlans,
			bcastKey{src: src, dst: dst, source: source},
			func() string { return fmt.Sprintf("bcast:%s:%s:%d", src, dst, source) },
			func() { m.broadcastRoutes(dst, source) })
		return routes
	}
	return m.broadcastRoutes(dst, source)
}

// broadcastRoutes issues the greedy flood's unit routes (one RouteB
// per round), assuming dst at the source already holds the payload.
func (m *Machine) broadcastRoutes(dst string, source int) int {
	informedAt := make([]int, m.Size())
	for i := range informedAt {
		informedAt[i] = -1
	}
	informedAt[source] = 0
	count := 1
	round := 0
	topo := m.Topology()
	for count < m.Size() {
		round++
		ports := make([]int, m.Size())
		for i := range ports {
			ports[i] = -1
		}
		for pe := 0; pe < m.Size(); pe++ {
			if informedAt[pe] < 0 || informedAt[pe] >= round {
				continue
			}
			for p := 0; p < topo.Ports(); p++ {
				to := topo.Neighbor(pe, p)
				if to >= 0 && informedAt[to] == -1 {
					informedAt[to] = round
					ports[pe] = p
					count++
					break
				}
			}
		}
		m.RouteB(dst, dst, func(pe int) int { return ports[pe] })
	}
	return round
}

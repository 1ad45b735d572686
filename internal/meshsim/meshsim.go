// Package meshsim runs SIMD programs on a mesh-connected machine:
// it adapts mesh.Mesh to simd.Topology and provides the mesh's
// primitive data-movement operation, the unit route ([NASS81], §1 of
// the paper): all PEs move data one step along a chosen dimension in
// a chosen direction. Mesh algorithms (sorting, stencils) are built
// from this primitive and their costs are counted in unit routes,
// which Theorem 6 then transfers to the star graph at a factor ≤ 3.
package meshsim

import (
	"fmt"
	"strings"

	"starmesh/internal/mesh"
	"starmesh/internal/simd"
)

// Topo adapts a mesh to simd.Topology. Port 2j is +1 along dimension
// j; port 2j+1 is -1 along dimension j.
type Topo struct {
	M *mesh.Mesh
}

// Size implements simd.Topology.
func (t Topo) Size() int { return t.M.Order() }

// Ports implements simd.Topology.
func (t Topo) Ports() int { return 2 * t.M.Dims() }

// Neighbor implements simd.Topology.
func (t Topo) Neighbor(pe, port int) int {
	dim := port / 2
	dir := 1 - 2*(port&1)
	return t.M.Step(pe, dim, dir)
}

// PlanKey implements simd.PlanKeyer: meshes of the same shape share
// compiled route plans.
func (t Topo) PlanKey() string {
	var b strings.Builder
	b.WriteString("mesh:")
	for j := 0; j < t.M.Dims(); j++ {
		if j > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "%d", t.M.Size(j))
	}
	return b.String()
}

// Port returns the port index for a step along dim in direction dir.
func Port(dim, dir int) int {
	if dir > 0 {
		return 2 * dim
	}
	return 2*dim + 1
}

// Machine is a mesh-connected SIMD computer.
type Machine struct {
	*simd.Machine
	M *mesh.Mesh
	// ceTmp is the compare-exchange scratch register, declared at
	// construction and cached here so the per-phase hot path never
	// pays the EnsureReg/Reg map lookups. Reset zeroes registers in
	// place (it never reallocates), so this alias stays valid on
	// reused machines.
	ceTmp []int64
	// urPlans/cePlans memoize compiled route plans per schedule (the
	// plans themselves live in simd.SharedPlans, shared across
	// machines of the same shape).
	urPlans map[urKey]*simd.Plan
	cePlans map[ceKey]*simd.Plan
	// ceRoles memoizes, per (dim, phase), each PE's compare-exchange
	// role (ceLow, ceHigh or 0): a function of the mesh shape alone,
	// so it survives Reset.
	ceRoles map[ceRoleKey][]int8
}

// urKey identifies a unit-route schedule; ceKey a compare-exchange
// route pair.
type urKey struct {
	src, dst string
	dim, dir int
}
type ceKey struct {
	key        string
	dim, phase int
}
type ceRoleKey struct{ dim, phase int }

// The compare-exchange roles: a low PE pairs with its c+1 neighbor,
// a high PE with its c-1 neighbor.
const (
	ceLow int8 = 1 + iota
	ceHigh
)

// ceTmpReg is the compare-exchange scratch register name.
const ceTmpReg = "__ce_tmp"

// New builds a machine over the given mesh. Options select the
// simd execution engine (default sequential).
func New(m *mesh.Mesh, opts ...simd.Option) *Machine {
	mm := &Machine{
		Machine: simd.New(Topo{M: m}, opts...),
		M:       m,
		urPlans: make(map[urKey]*simd.Plan),
		cePlans: make(map[ceKey]*simd.Plan),
		ceRoles: make(map[ceRoleKey][]int8),
	}
	mm.AddReg(ceTmpReg)
	mm.ceTmp = mm.Reg(ceTmpReg)
	return mm
}

// UnitRoute moves register src one step along dimension dim in
// direction dir on every PE that has such a neighbor, storing into
// dst — the SIMD-A mesh unit route, "B(i^(2)) ← B(i)" in the paper's
// notation. Costs exactly 1 unit route. With plans enabled (the
// default) the route is compiled once per (src, dst, dim, dir) and
// replayed as a dense array walk.
func (m *Machine) UnitRoute(src, dst string, dim, dir int) {
	simd.RunMemoized(m.Machine, simd.SharedPlans, m.urPlans,
		urKey{src: src, dst: dst, dim: dim, dir: dir},
		func() string { return fmt.Sprintf("ur:%s:%s:%d:%d", src, dst, dim, dir) },
		func() { m.RouteA(src, dst, Port(dim, dir), nil) })
}

// CompareExchange performs one odd-even transposition half-step
// along dimension dim: every PE whose coordinate c satisfies
// c%2 == phase pairs with its c+1 neighbor; the pair sorts its two
// keys so that the PE for which ascending(pe) holds keeps the
// smaller one. ascending == nil means ascending everywhere. Costs 2
// unit routes (one transmission in each direction); the route pair
// depends only on (dim, phase), so with plans enabled it is compiled
// once and replayed — ascending only shapes the local combine.
func (m *Machine) CompareExchange(key string, dim, phase int, ascending func(pe int) bool) {
	const tmp = ceTmpReg
	roles := m.ceRolesFor(dim, phase)
	// Lows send keys up; highs send keys down. After both routes each
	// paired PE holds its partner's key in tmp.
	routes := func() {
		m.RouteA(key, tmp, Port(dim, +1), func(pe int) bool { return roles[pe] == ceLow })
		m.RouteA(key, tmp, Port(dim, -1), func(pe int) bool { return roles[pe] == ceHigh })
	}
	simd.RunMemoized(m.Machine, simd.SharedPlans, m.cePlans,
		ceKey{key: key, dim: dim, phase: phase},
		func() string { return fmt.Sprintf("ce:%s:%d:%d", key, dim, phase) },
		routes)
	k := m.Reg(key)
	t := m.ceTmp
	m.Apply(func(pe int) {
		var keepMin bool
		switch roles[pe] {
		case ceLow:
			keepMin = ascending == nil || ascending(pe)
		case ceHigh:
			keepMin = !(ascending == nil || ascending(pe))
		default:
			return
		}
		if keepMin {
			if t[pe] < k[pe] {
				k[pe] = t[pe]
			}
		} else {
			if t[pe] > k[pe] {
				k[pe] = t[pe]
			}
		}
	})
}

// ceRolesFor returns (building on first use) the compare-exchange
// role of every PE along dim in phase: low where the coordinate c
// has c%2 == phase and a c+1 neighbor, high where c > 0 and
// (c-1)%2 == phase.
func (m *Machine) ceRolesFor(dim, phase int) []int8 {
	rk := ceRoleKey{dim: dim, phase: phase}
	if roles, ok := m.ceRoles[rk]; ok {
		return roles
	}
	roles := make([]int8, m.Size())
	for pe := range roles {
		c := m.M.Coord(pe, dim)
		switch {
		case c%2 == phase && m.M.Step(pe, dim, +1) != -1:
			roles[pe] = ceLow
		case c > 0 && (c-1)%2 == phase:
			roles[pe] = ceHigh
		}
	}
	m.ceRoles[rk] = roles
	return roles
}

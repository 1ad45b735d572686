// Package virtual runs the mesh D_{n+1} — which has (n+1)! nodes —
// on the star machine S_n with only n! PEs, each PE hosting n+1
// virtual mesh nodes. This extends the paper's embedding to meshes
// larger than the machine (processor virtualization):
//
//   - a virtual node (d_n, d_{n-1}, …, d_1) of D_{n+1} lives in slot
//     d_n of the star PE that the paper's map assigns to
//     (d_{n-1}, …, d_1) in D_n;
//   - a unit route along dimension k ≤ n-1 moves every slot through
//     the Theorem-6 schedule: n+1 slot moves × ≤3 routes — i.e. the
//     amortized cost per virtual node stays ≤ 3;
//   - a unit route along the NEW dimension n is a pure intra-PE slot
//     shuffle and costs zero unit routes.
//
// The placement is table-driven: New derives every virtual node's
// (pe, slot) and its inverse from the star machine's cached vertex
// map (starsim.Machine.MeshIDs) once. Slot register names and banks
// are memoized on first use. All of these depend only on n and on
// registers that never move, so they survive Reset and a pooled
// machine never rebuilds them; Locate, Get, Put, Set and every mask
// test are table lookups. The snake sort of D_{n+1} runs through
// package sorting (sorting.NewVirtualSort), on the slot banks Banks
// returns.
//
// The equivalence tests check bit-identical behaviour against a real
// (n+1)!-PE mesh machine.
package virtual

import (
	"fmt"

	"starmesh/internal/mesh"
	"starmesh/internal/simd"
	"starmesh/internal/starsim"
)

// Machine simulates D_{n+1} on S_n.
type Machine struct {
	SM    *starsim.Machine
	N     int        // star parameter n
	Slots int        // n+1 virtual nodes per PE
	Big   *mesh.Mesh // D_{n+1}

	// Virtual node bigID lives in slot bigID / n! of PE pe[bigID];
	// bigAt[slot·n! + pe] inverts that.
	pe    []int
	bigAt []int
	regs  map[string]*vreg
}

// vreg is a virtual register's n+1 physical slot registers.
type vreg struct {
	names []string
	banks [][]int64
}

// New builds the virtualized machine over S_n. Options select the
// simd execution engine of the underlying star machine.
func New(n int, opts ...simd.Option) *Machine {
	sm := starsim.New(n, opts...)
	big := mesh.D(n + 1)
	m := &Machine{
		SM:    sm,
		N:     n,
		Slots: n + 1,
		Big:   big,
		pe:    make([]int, big.Order()),
		bigAt: make([]int, big.Order()),
		regs:  make(map[string]*vreg),
	}
	// D_{n+1}'s last dimension has stride n!, so bigID = slot·n! + the
	// id of its D_n coordinates, which the paper's map places on PE pe.
	meshIDs := sm.MeshIDs()
	size := len(meshIDs)
	for slot := 0; slot < m.Slots; slot++ {
		for pe, small := range meshIDs {
			bigID := slot*size + small
			m.pe[bigID] = pe
			m.bigAt[slot*size+pe] = bigID
		}
	}
	return m
}

// Close closes the underlying star machine (see simd.Machine.Close).
func (m *Machine) Close() { m.SM.Close() }

// Reset returns the machine to its post-construction state for
// pooled reuse: every slot register is zeroed and stats cleared,
// while the star machine's amortized state (neighbor tables, route
// tables, compiled plans) and the placement tables are kept.
func (m *Machine) Reset() { m.SM.Reset() }

// slotReg names the physical register backing a virtual register's
// slot.
func slotReg(name string, slot int) string {
	return fmt.Sprintf("%s#%d", name, slot)
}

// reg returns the memoized slot registers of a virtual register.
// Banks never move once declared (not even across Reset), so the
// memo stays valid for the machine's lifetime.
func (m *Machine) reg(name string) *vreg {
	if r, ok := m.regs[name]; ok {
		return r
	}
	r := &vreg{names: make([]string, m.Slots), banks: make([][]int64, m.Slots)}
	for s := range r.names {
		r.names[s] = slotReg(name, s)
		r.banks[s] = m.SM.Reg(r.names[s])
	}
	m.regs[name] = r
	return r
}

// Banks returns the n+1 slot banks of virtual register name: bank
// s holds slot s, indexed by PE. The register must be declared. The
// banks never move, not even across Reset.
func (m *Machine) Banks(name string) [][]int64 { return m.reg(name).banks }

// EnsureReg declares a virtual register if it does not exist yet —
// the idempotent form pooled reuse needs.
func (m *Machine) EnsureReg(name string) {
	if _, ok := m.regs[name]; ok {
		return
	}
	for s := 0; s < m.Slots; s++ {
		m.SM.EnsureReg(slotReg(name, s))
	}
	m.reg(name)
}

// AddReg declares a virtual register (n+1 physical registers).
func (m *Machine) AddReg(name string) {
	for s := 0; s < m.Slots; s++ {
		m.SM.AddReg(slotReg(name, s))
	}
	m.reg(name)
}

// Locate returns the physical PE and slot hosting a virtual mesh
// node of D_{n+1}.
func (m *Machine) Locate(bigID int) (pe, slot int) {
	return m.pe[bigID], bigID / m.SM.Size()
}

// cell returns the storage of a virtual register at a virtual node.
func (m *Machine) cell(r *vreg, bigID int) *int64 {
	pe, slot := m.Locate(bigID)
	return &r.banks[slot][pe]
}

// Get reads a virtual register at a virtual mesh node.
func (m *Machine) Get(name string, bigID int) int64 {
	return *m.cell(m.reg(name), bigID)
}

// Put writes one virtual register value.
func (m *Machine) Put(name string, bigID int, v int64) {
	*m.cell(m.reg(name), bigID) = v
}

// Set writes virtual register values from a function over virtual
// mesh ids.
func (m *Machine) Set(name string, fn func(bigID int) int64) {
	r := m.reg(name)
	for bigID := range m.pe {
		*m.cell(r, bigID) = fn(bigID)
	}
}

// UnitRoute performs one SIMD unit route of D_{n+1} along dimension
// k (1 ≤ k ≤ n) in direction dir, moving src into dst at every
// interior virtual node (dst elsewhere unchanged). It returns the
// number of physical star unit routes consumed: ≤ 3(n+1) for
// k ≤ n-1, and 0 for k = n (slot shuffle).
func (m *Machine) UnitRoute(src, dst string, k, dir int) int {
	return m.MaskedUnitRoute(src, dst, k, dir, nil)
}

// MaskedUnitRoute is UnitRoute restricted to the virtual mesh nodes
// selected by mask (a predicate over D_{n+1} node ids; nil = all).
func (m *Machine) MaskedUnitRoute(src, dst string, k, dir int, mask func(bigID int) bool) int {
	if k < 1 || k > m.N {
		panic(fmt.Sprintf("virtual: dimension %d out of range", k))
	}
	if dir != 1 && dir != -1 {
		panic("virtual: dir must be ±1")
	}
	s, d := m.reg(src), m.reg(dst)
	size := m.SM.Size()
	// slotNodes is the virtual node each PE hosts in one slot.
	slotNodes := func(slot int) []int { return m.bigAt[slot*size : (slot+1)*size] }
	if k == m.N {
		// The new dimension: value in slot s moves to slot s+dir of
		// the same PE (masked per virtual node). Iterate receivers
		// farthest-first so src == dst does not clobber unread slots.
		for i := 0; i < m.Slots-1; i++ {
			from := m.Slots - 2 - i
			if dir < 0 {
				from = i + 1
			}
			srcReg, dstReg, nodes := s.banks[from], d.banks[from+dir], slotNodes(from)
			for pe := range srcReg {
				if mask == nil || mask(nodes[pe]) {
					dstReg[pe] = srcReg[pe]
				}
			}
		}
		return 0
	}
	routes := 0
	for slot := 0; slot < m.Slots; slot++ {
		var starMask func(pe int) bool
		if mask != nil {
			nodes := slotNodes(slot)
			starMask = func(pe int) bool { return mask(nodes[pe]) }
		}
		r, conflicts := m.SM.MaskedMeshUnitRoute(s.names[slot], d.names[slot], k, dir, starMask)
		if conflicts != 0 {
			panic("virtual: unit route conflicted (Lemma 5 violated)")
		}
		routes += r
	}
	return routes
}

// Stats exposes the underlying machine counters.
func (m *Machine) Stats() (unitRoutes int) { return m.SM.Stats().UnitRoutes }

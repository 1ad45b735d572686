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
// map (starsim.Machine.MeshIDs), the snake plan of D_{n+1} and each
// virtual node's odd-even role per phase parity once. Slot register
// names and banks are memoized on first use, and so are the star
// routes of a snake-sort phase, one compiled plan per (key register,
// parity). All of these depend only on n and on registers that never
// move, so they survive Reset and a pooled machine never rebuilds
// them; Locate, Get, Put, Set and every mask test are table lookups.
//
// The equivalence tests check bit-identical behaviour against a real
// (n+1)!-PE mesh machine.
package virtual

import (
	"context"
	"fmt"

	"starmesh/internal/mesh"
	"starmesh/internal/meshops"
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
	snake *meshops.SnakePlan // snake order of D_{n+1}
	// role[par][slot·n! + pe] is the odd-even role (roleLow, roleHigh
	// or 0) of the virtual node in slot of PE pe, in the snake sort's
	// phases of parity par.
	role [2][]int8
	// blocks memoizes the star routes of one snake-sort phase per
	// (key register, parity).
	blocks map[blockKey]*simd.Plan
	regs   map[string]*vreg
	// classes[par][j][d] selects the snake pairs of parity par whose
	// step runs along dimension index j, upward for d = 0 and
	// downward for d = 1.
	classes [2][][2]pairClass
}

// pairClass is one (parity, dimension, direction) class of snake
// pairs: the masks that select their low and their high ends, and
// whether the class has any pair at all.
type pairClass struct {
	low, high func(bigID int) bool
	some      bool
}

// blockKey identifies the memoized star routes of one snake-sort
// phase.
type blockKey struct {
	key string
	par int
}

// The odd-even roles of the snake sort: the low end of a snake pair
// keeps the smaller key, the high end the larger.
const (
	roleLow int8 = 1 + iota
	roleHigh
)

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
		SM:     sm,
		N:      n,
		Slots:  n + 1,
		Big:    big,
		pe:     make([]int, big.Order()),
		bigAt:  make([]int, big.Order()),
		snake:  meshops.NewSnakePlan(big),
		blocks: make(map[blockKey]*simd.Plan),
		regs:   make(map[string]*vreg),
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
	for par := range m.role {
		role := make([]int8, len(m.bigAt))
		for i, bigID := range m.bigAt {
			s := m.snake.Index[bigID]
			switch {
			case m.isLow(bigID, par):
				role[i] = roleLow
			case s > 0 && m.isLow(m.snake.IDAt[s-1], par):
				role[i] = roleHigh
			}
		}
		m.role[par] = role
		m.classes[par] = make([][2]pairClass, n)
		for j := range m.classes[par] {
			for d, dir := range [2]int{+1, -1} {
				m.classes[par][j][d] = m.newPairClass(par, j, dir)
			}
		}
	}
	return m
}

// newPairClass builds the masks of the snake pairs of parity par whose
// step runs along dimension index j in direction dir.
func (m *Machine) newPairClass(par, j, dir int) pairClass {
	index, idAt, stepDim, stepDir := m.snake.Index, m.snake.IDAt, m.snake.Dim, m.snake.Dir
	c := pairClass{
		low: func(bigID int) bool {
			return m.isLow(bigID, par) && stepDim[bigID] == j && stepDir[bigID] == dir
		},
	}
	c.high = func(bigID int) bool {
		s := index[bigID]
		return s > 0 && c.low(idAt[s-1])
	}
	for bigID := 0; bigID < len(idAt) && !c.some; bigID++ {
		c.some = c.low(bigID)
	}
	return c
}

// isLow reports whether virtual node bigID starts a compare-exchange
// pair in snake-sort phases of parity par: an even (or odd) snake
// position that has a successor.
func (m *Machine) isLow(bigID, par int) bool {
	return m.snake.Index[bigID]%2 == par && m.snake.Dim[bigID] != -1
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

// SnakeSort sorts virtual register key into the snake order of
// D_{n+1} by odd-even transposition over the snake — (n+1)! keys on
// n! physical PEs. Returns whether the result is sorted and the
// physical unit routes consumed.
func (m *Machine) SnakeSort(key string) (sorted bool, routes int) {
	sorted, routes, _ = m.SnakeSortCtx(context.Background(), key)
	return sorted, routes
}

// SnakeSortCtx is SnakeSort with a cooperative cancellation
// checkpoint once per odd-even transposition phase — the sort runs
// (n+1)! phases, so mid-run cancellation aborts within one phase.
// On cancellation it returns the partial route count with ctx's
// error (sorted false).
func (m *Machine) SnakeSortCtx(ctx context.Context, key string) (sorted bool, routes int, err error) {
	idAt := m.snake.IDAt
	N := len(idAt)
	const tmp = "__vsnake_tmp"
	m.EnsureReg(tmp)
	keys, tmps := m.reg(key), m.reg(tmp)
	size := m.SM.Size()
	// The recorded star routes are masked; their route tables must
	// exist before the first recording, or it is impure.
	m.SM.BuildRouteTables()
	before := m.SM.Stats().UnitRoutes
	for phase := 0; phase < N; phase++ {
		if err := ctx.Err(); err != nil {
			return false, m.SM.Stats().UnitRoutes - before, err
		}
		par := phase % 2
		// The star routes of a phase (dimensions 1..n-1) depend only
		// on its parity: record them once per (key, parity), replay
		// them after. The new dimension's slot shuffle writes register
		// banks directly, which a plan cannot record, so it runs after
		// the block, as it did last in the dimension loop.
		simd.RunMemoized(m.SM.Machine, simd.SharedPlans, m.blocks, blockKey{key: key, par: par},
			func() string { return fmt.Sprintf("vsnake:%s:%d", key, par) },
			func() { m.phaseRoutes(key, tmp, par, 0, m.N-1) })
		m.phaseRoutes(key, tmp, par, m.N-1, m.N)
		for slot := 0; slot < m.Slots; slot++ {
			k, t := keys.banks[slot], tmps.banks[slot]
			for pe, r := range m.role[par][slot*size : (slot+1)*size] {
				switch r {
				case roleLow:
					if t[pe] < k[pe] {
						k[pe] = t[pe]
					}
				case roleHigh:
					if t[pe] > k[pe] {
						k[pe] = t[pe]
					}
				}
			}
		}
	}
	routes = m.SM.Stats().UnitRoutes - before
	sorted = true
	prevVal := int64(0)
	for s, bigID := range idAt {
		v := *m.cell(keys, bigID)
		if s > 0 && v < prevVal {
			sorted = false
		}
		prevVal = v
	}
	return sorted, routes, nil
}

// phaseRoutes moves the keys of every snake pair whose step runs
// along a D_{n+1} dimension index in [from, to) across, in phases of
// parity par: one masked unit route per (dimension, direction) class
// in each direction.
func (m *Machine) phaseRoutes(key, tmp string, par, from, to int) {
	for j := from; j < to; j++ {
		for d, dir := range [2]int{+1, -1} {
			c := &m.classes[par][j][d]
			if !c.some {
				continue
			}
			m.MaskedUnitRoute(key, tmp, j+1, dir, c.low)
			m.MaskedUnitRoute(key, tmp, j+1, -dir, c.high)
		}
	}
}

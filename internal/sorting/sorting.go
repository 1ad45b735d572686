// Package sorting implements SIMD mesh sorting algorithms and runs
// them both on the mesh machine directly and on the star graph
// through the paper's embedding, supporting the §5 discussion: any
// T(n)-unit-route mesh algorithm runs in ≤ 3·T(n) star unit routes
// (Theorem 6).
//
// Algorithms:
//
//   - ShearSort2D: shear sort on an a×b mesh ([SCHE89]; the paper
//     singles it out as the 2-D method that avoids divide and
//     conquer). ⌈log₂ a⌉+1 row/column rounds.
//   - SnakeSort: odd-even transposition over the snake
//     (boustrophedon) order of an arbitrary rectangular mesh —
//     runnable on the mesh machine, on the star machine, where
//     every masked mesh unit route costs ≤ 3 star routes, and on the
//     virtual machine, which hosts D_{n+1} on S_n (NewVirtualSort).
package sorting

import (
	"context"
	"fmt"
	"hash/fnv"

	"starmesh/internal/mesh"
	"starmesh/internal/meshops"
	"starmesh/internal/meshsim"
	"starmesh/internal/simd"
	"starmesh/internal/starsim"
	"starmesh/internal/virtual"
)

// Result reports the cost of a sort run.
type Result struct {
	Sorted     bool
	Phases     int
	UnitRoutes int // unit routes on the executing machine
	Conflicts  int // receive conflicts observed (must be 0)
}

// costSince reports what machine m spent since it counted before, as
// the Result of a sort that ran the given phases.
func costSince(m *simd.Machine, before simd.Stats, phases int, sorted bool) Result {
	after := m.Stats()
	return Result{
		Sorted:     sorted,
		Phases:     phases,
		UnitRoutes: after.UnitRoutes - before.UnitRoutes,
		Conflicts:  after.ReceiveConflicts - before.ReceiveConflicts,
	}
}

// IsSortedBySnake reports whether register key on machine m is
// nondecreasing along the snake order of its mesh.
func IsSortedBySnake(m *mesh.Mesh, key []int64) bool {
	prev := int64(0)
	coords := make([]int, 0, m.Dims())
	for s := 0; s < m.Order(); s++ {
		v := key[m.ID(m.SnakeCoords(coords[:0], s))]
		if s > 0 && v < prev {
			return false
		}
		prev = v
	}
	return true
}

// ShearSort2D sorts register key on an a×b mesh machine (dimension 0
// = position within a row of length b; dimension 1 = row index,
// a rows) into snake order: rows are sorted alternately ascending
// and descending, columns ascending, for ⌈log₂ a⌉ rounds plus a
// final row phase.
func ShearSort2D(m *meshsim.Machine, key string) Result {
	res, _ := ShearSort2DCtx(context.Background(), m, key)
	return res
}

// ShearSort2DCtx is ShearSort2D with a cooperative cancellation
// checkpoint before every compare-exchange phase: when ctx fires the
// sort stops at the next phase boundary and returns the partial cost
// with ctx's error (Sorted false).
func ShearSort2DCtx(ctx context.Context, m *meshsim.Machine, key string) (Result, error) {
	if m.M.Dims() != 2 {
		panic("sorting: ShearSort2D needs a 2-D mesh")
	}
	b, a := m.M.Size(0), m.M.Size(1)
	before := m.Stats()
	rounds := 0
	for x := 1; x < a; x *= 2 {
		rounds++
	}
	rowAscending := func(pe int) bool { return m.M.Coord(pe, 1)%2 == 0 }
	sortRows := func() error {
		for phase := 0; phase < b; phase++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			m.CompareExchange(key, 0, phase%2, rowAscending)
		}
		return nil
	}
	sortCols := func() error {
		for phase := 0; phase < a; phase++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			m.CompareExchange(key, 1, phase%2, nil)
		}
		return nil
	}
	for r := 0; r < rounds; r++ {
		if err := sortRows(); err != nil {
			return costSince(m.Machine, before, 0, false), err
		}
		if err := sortCols(); err != nil {
			return costSince(m.Machine, before, 0, false), err
		}
	}
	if err := sortRows(); err != nil {
		return costSince(m.Machine, before, 0, false), err
	}
	return costSince(m.Machine, before, rounds+1, IsSortedBySnake(m.M, m.Reg(key))), nil
}

// exchanger abstracts "move register src one masked step along
// (dim,dir) into dst" over the three machines, so the snake sort runs
// unchanged on a mesh (1 route per step), on a star via the embedding
// (≤ 3 routes per step) and on the virtual machine (≤ 3 star routes
// per slot, or a free slot shuffle along its last dimension).
type exchanger interface {
	maskedStep(src, dst string, dim, dir int, mask func(meshID int) bool)
	machine() *simd.Machine
	theMesh() *mesh.Mesh
	// planTag distinguishes schedules that share a topology but move
	// data differently (mesh vs star exchange, SIMD model, vertex
	// map), so compiled phase plans never collide in the shared
	// cache.
	planTag() string
	// banks declares register name if it does not exist yet and
	// returns its storage, one bank per slot: cell s·len(bank) + pe
	// of the register is banks[s][pe]. The virtual machine keeps a
	// bank per slot, the mesh and star machines a single one.
	banks(name string) [][]int64
	// routed is how many leading mesh dimensions move by unit routes,
	// which a phase plan records. Steps along the others write
	// register banks directly, so they run after the recorded block.
	routed() int
}

// meshExchanger runs on the mesh machine itself; PE ids are mesh ids.
type meshExchanger struct{ mm *meshsim.Machine }

func (e meshExchanger) machine() *simd.Machine { return e.mm.Machine }
func (e meshExchanger) theMesh() *mesh.Mesh    { return e.mm.M }
func (e meshExchanger) planTag() string        { return "mesh" }
func (e meshExchanger) routed() int            { return e.mm.M.Dims() }
func (e meshExchanger) banks(name string) [][]int64 {
	e.mm.EnsureReg(name)
	return [][]int64{e.mm.Reg(name)}
}
func (e meshExchanger) maskedStep(src, dst string, dim, dir int, mask func(int) bool) {
	e.mm.RouteA(src, dst, meshsim.Port(dim, dir), mask)
}

// starExchanger runs on the star machine through the embedding; PE
// ids are star ids and mesh masks are translated via ConvertSD
// inside starsim's role tests (the machine's mask argument receives
// star PE ids, so we wrap it with the stored mesh-id lookup).
type starExchanger struct {
	sm     *starsim.Machine
	dn     *mesh.Mesh
	meshID []int // star PE id -> mesh id
	modelA bool  // serialize per-generator rounds (SIMD-A star)
}

func (e starExchanger) machine() *simd.Machine { return e.sm.Machine }
func (e starExchanger) theMesh() *mesh.Mesh    { return e.dn }
func (e starExchanger) routed() int            { return e.dn.Dims() }
func (e starExchanger) banks(name string) [][]int64 {
	e.sm.EnsureReg(name)
	return [][]int64{e.sm.Reg(name)}
}
func (e starExchanger) planTag() string {
	// The meshID vertex map shapes every mask, so it is part of the
	// schedule identity.
	h := fnv.New64a()
	for _, id := range e.meshID {
		var buf [8]byte
		for b := 0; b < 8; b++ {
			buf[b] = byte(id >> (8 * b))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("star:modelA=%t:vm=%x", e.modelA, h.Sum64())
}
func (e starExchanger) maskedStep(src, dst string, dim, dir int, mask func(int) bool) {
	starMask := func(pe int) bool { return mask(e.meshID[pe]) }
	if e.modelA {
		e.sm.MaskedMeshUnitRouteModelA(src, dst, dim+1, dir, starMask)
		return
	}
	e.sm.MaskedMeshUnitRoute(src, dst, dim+1, dir, starMask)
}

// virtualExchanger runs on the virtual machine: mesh ids are the
// D_{n+1} node ids the machine's masks take, and the last dimension
// is the slot shuffle.
type virtualExchanger struct{ vm *virtual.Machine }

func (e virtualExchanger) machine() *simd.Machine { return e.vm.SM.Machine }
func (e virtualExchanger) theMesh() *mesh.Mesh    { return e.vm.Big }
func (e virtualExchanger) planTag() string        { return "virtual" }
func (e virtualExchanger) routed() int            { return e.vm.N - 1 }
func (e virtualExchanger) banks(name string) [][]int64 {
	e.vm.EnsureReg(name)
	return e.vm.Banks(name)
}
func (e virtualExchanger) maskedStep(src, dst string, dim, dir int, mask func(int) bool) {
	e.vm.MaskedUnitRoute(src, dst, dim+1, dir, mask)
}

// The role of a cell in one odd-even transposition phase (0: none):
// the low end of a snake pair keeps the smaller key, the high end the
// larger.
const (
	roleLow int8 = 1 + iota
	roleHigh
)

// snakeTmp is the snake sort's scratch register.
const snakeTmp = "__snake_tmp"

// snakeTables holds everything the phases of a snake sort depend on
// besides the keys: the snake plan, each cell's role per phase
// parity, the masks of every class of snake pairs, the schedule tag,
// the memoized route block of each (key register, parity) and the
// banks of the registers sorted so far. All of it is a function of
// the exchanger (the machine, its SIMD model and its vertex map), so
// a machine that keeps its tables sorts again without rebuilding any
// of it.
type snakeTables struct {
	e      exchanger
	plan   *meshops.SnakePlan
	meshOf func(cell int) int
	role   [2][]int8 // [parity][cell]
	// classes[par][j][d] selects the snake pairs of parity par whose
	// step runs along dimension j, upward for d = 0 and downward for
	// d = 1.
	classes [2][][2]pairClass
	tag     string
	blocks  map[blockKey]*simd.Plan
	regs    map[string][][]int64 // banks per register name
	keys    []int64              // gather scratch of the sortedness check
}

// pairClass is one (parity, dimension, direction) class of snake
// pairs: the masks that select their low and their high ends, and
// whether the class has any pair at all.
type pairClass struct {
	low, high func(id int) bool
	some      bool
}

// blockKey identifies one memoized route block of a snakeTables.
type blockKey struct {
	key string
	par int
}

// newSnakeTables builds the tables of a sort through e, whose cell c
// (see exchanger.banks) hosts mesh node meshOf(c).
func newSnakeTables(e exchanger, meshOf func(cell int) int) *snakeTables {
	m := e.theMesh()
	t := &snakeTables{
		e:      e,
		plan:   meshops.NewSnakePlan(m),
		meshOf: meshOf,
		tag:    e.planTag(),
		blocks: make(map[blockKey]*simd.Plan),
		regs:   make(map[string][][]int64),
		keys:   make([]int64, m.Order()),
	}
	for par := range t.role {
		role := make([]int8, m.Order())
		for c := range role {
			id := meshOf(c)
			s := t.plan.Index[id]
			switch {
			case t.isLow(id, par):
				role[c] = roleLow
			case s > 0 && t.isLow(t.plan.IDAt[s-1], par):
				role[c] = roleHigh
			}
		}
		t.role[par] = role
		t.classes[par] = make([][2]pairClass, m.Dims())
		for j := range t.classes[par] {
			for d, dir := range [2]int{+1, -1} {
				t.classes[par][j][d] = t.newPairClass(par, j, dir)
			}
		}
	}
	return t
}

// isLow reports whether mesh node id starts a compare-exchange pair
// in phases of parity par: an even (or odd) snake position that has
// a successor.
func (t *snakeTables) isLow(id, par int) bool {
	return t.plan.Index[id]%2 == par && t.plan.Dim[id] != -1
}

// newPairClass builds the masks of the snake pairs of parity par
// whose step runs along dimension j in direction dir.
func (t *snakeTables) newPairClass(par, j, dir int) pairClass {
	p := t.plan
	c := pairClass{
		low: func(id int) bool {
			return t.isLow(id, par) && p.Dim[id] == j && p.Dir[id] == dir
		},
	}
	c.high = func(id int) bool {
		s := p.Index[id]
		return s > 0 && c.low(p.IDAt[s-1])
	}
	for id := 0; id < len(p.IDAt) && !c.some; id++ {
		c.some = c.low(id)
	}
	return c
}

// banks returns (looking up on first use) the banks of register name.
// Banks never move once declared, not even across Reset.
func (t *snakeTables) banks(name string) [][]int64 {
	b, ok := t.regs[name]
	if !ok {
		b = t.e.banks(name)
		t.regs[name] = b
	}
	return b
}

// routeBlock moves every pair's keys across in phases of parity par,
// for the pairs whose step runs along a dimension in [from, to): each
// (dim,dir) class of snake steps is one masked route in each
// direction. It depends only on the tables, never on the keys.
func (t *snakeTables) routeBlock(key string, par, from, to int) {
	for j := from; j < to; j++ {
		for d, dir := range [2]int{+1, -1} {
			c := &t.classes[par][j][d]
			if !c.some {
				continue
			}
			t.e.maskedStep(key, snakeTmp, j, dir, c.low)
			t.e.maskedStep(key, snakeTmp, j, -dir, c.high)
		}
	}
}

// sort runs odd-even transposition over the snake order, checking ctx
// once per phase — the cooperative cancellation checkpoint: when ctx
// fires the sort stops at the phase boundary and returns the partial
// cost with ctx's error (Sorted false).
func (t *snakeTables) sort(ctx context.Context, key string) (Result, error) {
	mach := t.e.machine()
	keys, tmps := t.banks(key), t.banks(snakeTmp)
	n := t.plan.M.Order()
	routed, dims := t.e.routed(), len(t.classes[0])
	before := mach.Stats()
	for phase := 0; phase < n; phase++ {
		if err := ctx.Err(); err != nil {
			return costSince(mach, before, phase, false), err
		}
		// The route block of a phase depends only on the phase's
		// parity, so the whole odd-even transposition replays two
		// compiled schedules: record parity 0 and 1 once, replay them
		// for the remaining phases (and across machines of the same
		// shape via the shared plan cache). Steps a plan cannot record
		// run after the block.
		par := phase % 2
		simd.RunMemoized(mach, simd.SharedPlans, t.blocks, blockKey{key: key, par: par},
			func() string { return fmt.Sprintf("snakephase:%s:%s:%d", t.tag, key, par) },
			func() { t.routeBlock(key, par, 0, routed) })
		t.routeBlock(key, par, routed, dims)
		// Local compare: lows keep min, highs keep max.
		for s, k := range keys {
			tmp := tmps[s]
			for pe, r := range t.role[par][s*len(k) : (s+1)*len(k)] {
				switch r {
				case roleLow:
					if tmp[pe] < k[pe] {
						k[pe] = tmp[pe]
					}
				case roleHigh:
					if tmp[pe] > k[pe] {
						k[pe] = tmp[pe]
					}
				}
			}
		}
	}
	res := costSince(mach, before, n, true)
	// Gather keys in mesh-id order for the sortedness check.
	for s, k := range keys {
		for pe, v := range k {
			t.keys[t.meshOf(s*len(k)+pe)] = v
		}
	}
	for s := 1; s < n && res.Sorted; s++ {
		res.Sorted = t.keys[t.plan.IDAt[s-1]] <= t.keys[t.plan.IDAt[s]]
	}
	return res, nil
}

// SnakeSortMesh sorts register key on the mesh machine into snake
// order via odd-even transposition over the snake.
func SnakeSortMesh(m *meshsim.Machine, key string) Result {
	res, _ := newSnakeTables(meshExchanger{mm: m}, func(pe int) int { return pe }).sort(context.Background(), key)
	return res
}

// StarSort is the snake sort of one machine built on a star machine —
// S_n under one vertex map of D_n, or the virtual machine's D_{n+1} —
// with its tables built once: the snake plan, the per-parity roles
// and pair masks, the phase keys, the memoized route blocks and the
// register banks. A machine that keeps its StarSort sorts again
// without rebuilding any of them.
type StarSort struct{ t *snakeTables }

// NewStarSort builds the snake-sort tables of star machine sm, whose
// PE pe hosts mesh node meshID[pe] (i.e. core.UnmapID for the
// paper's embedding).
func NewStarSort(sm *starsim.Machine, meshID []int) *StarSort {
	return &StarSort{t: newStarTables(sm, meshID, false)}
}

// NewVirtualSort builds the snake-sort tables of the virtual machine
// vm: (n+1)! keys of D_{n+1} sorted on the n! PEs of S_n.
func NewVirtualSort(vm *virtual.Machine) *StarSort {
	// The recorded star routes are masked; their route tables must
	// exist before the first recording, or it is impure.
	vm.SM.BuildRouteTables()
	cells := make([]int, vm.Big.Order())
	size := vm.SM.Size()
	for bigID := range cells {
		pe, slot := vm.Locate(bigID)
		cells[slot*size+pe] = bigID
	}
	return &StarSort{t: newSnakeTables(virtualExchanger{vm: vm}, func(c int) int { return cells[c] })}
}

// Sort sorts register key on the machine s was built for, checking
// ctx once per odd-even transposition phase: when ctx fires the sort
// stops at the next phase boundary and returns the partial cost with
// ctx's error (Sorted false).
func (s *StarSort) Sort(ctx context.Context, key string) (Result, error) {
	return s.t.sort(ctx, key)
}

// newStarTables builds the snake tables of a star machine. The
// Lemma-3 route tables are built first, outside any recording, so the
// first recording of a route block is pure and cached.
func newStarTables(sm *starsim.Machine, meshID []int, modelA bool) *snakeTables {
	sm.BuildRouteTables()
	e := starExchanger{sm: sm, dn: mesh.D(sm.N), meshID: meshID, modelA: modelA}
	return newSnakeTables(e, func(pe int) int { return meshID[pe] })
}

// SnakeSortStar sorts register key on the star machine: the mesh
// D_n is embedded by the paper's mapping, every snake step is a
// masked mesh unit route, and every unit route costs ≤ 3 star
// routes (Theorem 6). meshID[pe] must give the mesh node hosted by
// star PE pe (i.e. core.UnmapID).
func SnakeSortStar(sm *starsim.Machine, key string, meshID []int) Result {
	res, _ := NewStarSort(sm, meshID).Sort(context.Background(), key)
	return res
}

// SnakeSortStarModelA is SnakeSortStar on a SIMD-A star machine:
// every masked unit route is serialized into single-generator
// rounds, quantifying the §4 remark that SIMD-A results carry an
// extra O(n) factor.
func SnakeSortStarModelA(sm *starsim.Machine, key string, meshID []int) Result {
	res, _ := newStarTables(sm, meshID, true).sort(context.Background(), key)
	return res
}

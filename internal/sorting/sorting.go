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
//     runnable on the mesh machine and on the star machine, where
//     every masked mesh unit route costs ≤ 3 star routes.
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
)

// Result reports the cost of a sort run.
type Result struct {
	Sorted     bool
	Phases     int
	UnitRoutes int // unit routes on the executing machine
	Conflicts  int // receive conflicts observed (must be 0)
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
	res, _ := shearSort2D(m, key, nil)
	return res
}

// ShearSort2DCtx is ShearSort2D with a cooperative cancellation
// checkpoint before every compare-exchange phase: when ctx fires the
// sort stops at the next phase boundary and returns the partial cost
// with ctx's error (Sorted false).
func ShearSort2DCtx(ctx context.Context, m *meshsim.Machine, key string) (Result, error) {
	return shearSort2D(m, key, ctx.Err)
}

// shearSort2D runs the shear sort, consulting stop (when non-nil)
// before every phase.
func shearSort2D(m *meshsim.Machine, key string, stop func() error) (Result, error) {
	if m.M.Dims() != 2 {
		panic("sorting: ShearSort2D needs a 2-D mesh")
	}
	b, a := m.M.Size(0), m.M.Size(1)
	before := m.Stats()
	rounds := 0
	for x := 1; x < a; x *= 2 {
		rounds++
	}
	partial := func(err error) (Result, error) {
		after := m.Stats()
		return Result{
			UnitRoutes: after.UnitRoutes - before.UnitRoutes,
			Conflicts:  after.ReceiveConflicts - before.ReceiveConflicts,
		}, err
	}
	check := func() error {
		if stop == nil {
			return nil
		}
		return stop()
	}
	rowAscending := func(pe int) bool { return m.M.Coord(pe, 1)%2 == 0 }
	sortRows := func() error {
		for phase := 0; phase < b; phase++ {
			if err := check(); err != nil {
				return err
			}
			m.CompareExchange(key, 0, phase%2, rowAscending)
		}
		return nil
	}
	sortCols := func() error {
		for phase := 0; phase < a; phase++ {
			if err := check(); err != nil {
				return err
			}
			m.CompareExchange(key, 1, phase%2, nil)
		}
		return nil
	}
	for r := 0; r < rounds; r++ {
		if err := sortRows(); err != nil {
			return partial(err)
		}
		if err := sortCols(); err != nil {
			return partial(err)
		}
	}
	if err := sortRows(); err != nil {
		return partial(err)
	}
	after := m.Stats()
	return Result{
		Sorted:     IsSortedBySnake(m.M, m.Reg(key)),
		Phases:     rounds + 1,
		UnitRoutes: after.UnitRoutes - before.UnitRoutes,
		Conflicts:  after.ReceiveConflicts - before.ReceiveConflicts,
	}, nil
}

// exchanger abstracts "move register src one masked step along
// (dim,dir) into dst" over the two machines, so SnakeSort runs
// unchanged on a mesh (1 route per step) and on a star via the
// embedding (≤ 3 routes per step).
type exchanger interface {
	maskedStep(src, dst string, dim, dir int, mask func(meshID int) bool)
	machine() *simd.Machine
	theMesh() *mesh.Mesh
	// planTag distinguishes schedules that share a topology but move
	// data differently (mesh vs star exchange, SIMD model, vertex
	// map), so compiled phase plans never collide in the shared
	// cache.
	planTag() string
}

// meshExchanger runs on the mesh machine itself; PE ids are mesh ids.
type meshExchanger struct{ mm *meshsim.Machine }

func (e meshExchanger) machine() *simd.Machine { return e.mm.Machine }
func (e meshExchanger) theMesh() *mesh.Mesh    { return e.mm.M }
func (e meshExchanger) planTag() string        { return "mesh" }
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

// The role of a PE in one odd-even transposition phase (0: none):
// the low end of a snake pair keeps the smaller key, the high end the
// larger.
const (
	roleLow int8 = 1 + iota
	roleHigh
)

// snakeTmp is the snake sort's scratch register.
const snakeTmp = "__snake_tmp"

// snakeTables holds everything the phases of a snake sort depend on
// besides the keys: the snake plan, each PE's role per phase parity,
// the schedule tag and the memoized route block of each (key
// register, parity). All of it is a function of the exchanger (the
// machine, its SIMD model and its vertex map), so a machine that
// keeps its tables sorts again without rebuilding any of it.
type snakeTables struct {
	e      exchanger
	plan   *meshops.SnakePlan
	meshOf func(pe int) int
	role   [2][]int8 // [parity][pe]
	tag    string
	blocks map[blockKey]*simd.Plan
	keys   []int64 // gather scratch of the sortedness check
}

// blockKey identifies one memoized route block of a snakeTables.
type blockKey struct {
	key string
	par int
}

func newSnakeTables(e exchanger, meshOf func(pe int) int) *snakeTables {
	m := e.theMesh()
	t := &snakeTables{
		e:      e,
		plan:   meshops.NewSnakePlan(m),
		meshOf: meshOf,
		tag:    e.planTag(),
		blocks: make(map[blockKey]*simd.Plan),
		keys:   make([]int64, m.Order()),
	}
	size := e.machine().Size()
	for par := range t.role {
		role := make([]int8, size)
		for pe := range role {
			id := meshOf(pe)
			s := t.plan.Index[id]
			switch {
			case t.isLow(id, par):
				role[pe] = roleLow
			case s > 0 && t.isLow(t.plan.IDAt[s-1], par):
				role[pe] = roleHigh
			}
		}
		t.role[par] = role
	}
	return t
}

// isLow reports whether mesh node id starts a compare-exchange pair
// in phases of parity par: an even (or odd) snake position that has
// a successor.
func (t *snakeTables) isLow(id, par int) bool {
	return t.plan.Index[id]%2 == par && t.plan.Dim[id] != -1
}

// routeBlock moves every pair's keys across in phases of parity par:
// each (dim,dir) class of snake steps is one masked route in each
// direction. It depends only on the tables, never on the keys.
func (t *snakeTables) routeBlock(key string, par int) {
	p := t.plan
	m := p.M
	for j := 0; j < m.Dims(); j++ {
		for _, dir := range []int{+1, -1} {
			low := func(id int) bool {
				return t.isLow(id, par) && p.Dim[id] == j && p.Dir[id] == dir
			}
			high := func(id int) bool {
				s := p.Index[id]
				return s > 0 && low(p.IDAt[s-1])
			}
			if !anyMesh(m, low) {
				continue
			}
			t.e.maskedStep(key, snakeTmp, j, dir, low)
			t.e.maskedStep(key, snakeTmp, j, -dir, high)
		}
	}
}

// sort runs odd-even transposition over the snake order. stop (when
// non-nil) is consulted once per phase — the cooperative
// cancellation checkpoint; a non-nil return aborts the sort at the
// phase boundary with the partial cost.
func (t *snakeTables) sort(key string, stop func() error) (Result, error) {
	mach := t.e.machine()
	mach.EnsureReg(snakeTmp)
	n := t.plan.M.Order()
	before := mach.Stats()
	k := mach.Reg(key)
	tmp := mach.Reg(snakeTmp)
	for phase := 0; phase < n; phase++ {
		if stop != nil {
			if err := stop(); err != nil {
				after := mach.Stats()
				return Result{
					Phases:     phase,
					UnitRoutes: after.UnitRoutes - before.UnitRoutes,
					Conflicts:  after.ReceiveConflicts - before.ReceiveConflicts,
				}, err
			}
		}
		// The route block of a phase depends only on the phase's
		// parity, so the whole odd-even transposition replays two
		// compiled schedules: record parity 0 and 1 once, replay them
		// for the remaining phases (and across machines of the same
		// shape via the shared plan cache).
		par := phase % 2
		simd.RunMemoized(mach, simd.SharedPlans, t.blocks, blockKey{key: key, par: par},
			func() string { return fmt.Sprintf("snakephase:%s:%s:%d", t.tag, key, par) },
			func() { t.routeBlock(key, par) })
		// Local compare: lows keep min, highs keep max.
		for pe, r := range t.role[par] {
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
	after := mach.Stats()
	// Gather keys in mesh-id order for the sortedness check.
	for pe := range k {
		t.keys[t.meshOf(pe)] = k[pe]
	}
	sorted := true
	for s := 1; s < n && sorted; s++ {
		sorted = t.keys[t.plan.IDAt[s-1]] <= t.keys[t.plan.IDAt[s]]
	}
	return Result{
		Sorted:     sorted,
		Phases:     n,
		UnitRoutes: after.UnitRoutes - before.UnitRoutes,
		Conflicts:  after.ReceiveConflicts - before.ReceiveConflicts,
	}, nil
}

func anyMesh(m *mesh.Mesh, pred func(int) bool) bool {
	for id := 0; id < m.Order(); id++ {
		if pred(id) {
			return true
		}
	}
	return false
}

// SnakeSortMesh sorts register key on the mesh machine into snake
// order via odd-even transposition over the snake.
func SnakeSortMesh(m *meshsim.Machine, key string) Result {
	res, _ := newSnakeTables(meshExchanger{mm: m}, func(pe int) int { return pe }).sort(key, nil)
	return res
}

// StarSort is the snake sort of one star machine under one vertex
// map, with its tables built once: the snake plan, the per-parity
// roles, the phase keys and the memoized route blocks. A machine that
// keeps its StarSort sorts again without rebuilding any of them.
type StarSort struct{ t *snakeTables }

// NewStarSort builds the snake-sort tables of star machine sm, whose
// PE pe hosts mesh node meshID[pe] (i.e. core.UnmapID for the
// paper's embedding).
func NewStarSort(sm *starsim.Machine, meshID []int) *StarSort {
	return &StarSort{t: newStarTables(sm, meshID, false)}
}

// Sort is SnakeSortStarCtx on the machine and vertex map s was built
// for.
func (s *StarSort) Sort(ctx context.Context, key string) (Result, error) {
	return s.t.sort(key, ctx.Err)
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
	res, _ := SnakeSortStarCtx(context.Background(), sm, key, meshID)
	return res
}

// SnakeSortStarCtx is SnakeSortStar with a cooperative cancellation
// checkpoint once per odd-even transposition phase: when ctx fires
// the sort stops at the next phase boundary and returns the partial
// cost with ctx's error (Sorted false).
func SnakeSortStarCtx(ctx context.Context, sm *starsim.Machine, key string, meshID []int) (Result, error) {
	return NewStarSort(sm, meshID).Sort(ctx, key)
}

// SnakeSortStarModelA is SnakeSortStar on a SIMD-A star machine:
// every masked unit route is serialized into single-generator
// rounds, quantifying the §4 remark that SIMD-A results carry an
// extra O(n) factor.
func SnakeSortStarModelA(sm *starsim.Machine, key string, meshID []int) Result {
	res, _ := newStarTables(sm, meshID, true).sort(key, nil)
	return res
}

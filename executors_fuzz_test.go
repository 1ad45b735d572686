// Differential fuzzing of the SIMD machines' route paths. The
// paper's cost measure is the unit-route count, and closure
// resolution, plan replay and the star machine's generic role tests
// must reproduce it bit for bit, so one generated schedule run along
// each of them must leave the same Stats, PortUses and registers
// behind.
package starmesh_test

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"starmesh/internal/cubesim"
	"starmesh/internal/mesh"
	"starmesh/internal/meshsim"
	"starmesh/internal/simd"
	"starmesh/internal/starsim"
)

// FuzzExecutorsAgree decodes a unit-route schedule on a star (S_4 …
// S_7), mesh (up to 4096 PEs, 1 to 3 dimensions) or hypercube (up to
// Q_12) machine and runs it along three paths: closure resolution
// (plans off), plan replay, and — on the star machine — the generic
// role-test path that bypasses the Lemma-3 route tables
// (SetRouteCache(false)). The replay run executes the schedule twice
// with a Reset between and keeps the second run, which replays every
// step the first one recorded. Every path must match the closure run
// exactly.
//
// Input layout: family (star, mesh, hypercube), the machine's shape
// (star n, hypercube dimension, or mesh dimension count and two bytes
// per side), two bytes of register seed, then six bytes per step:
// kind, source and destination register (they may alias), dimension
// or port, direction, and a byte that sets a compare-exchange's phase
// and mask and salts the step's pure pseudo-random ports, mask or
// broadcast source.
func FuzzExecutorsAgree(f *testing.F) {
	for _, seed := range executorSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeSchedule(data)
		cache := simd.NewPlanCache()
		variants := []execVariant{
			{name: "closure", opts: []simd.Option{simd.WithPlans(false)}},
			{name: "replay", opts: []simd.Option{simd.WithPlans(true)}, replay: true},
		}
		if s.family == familyStar {
			variants = append(variants, execVariant{name: "generic", opts: []simd.Option{simd.WithPlans(false)}, generic: true})
		}
		ref := s.run(cache, variants[0])
		for _, v := range variants[1:] {
			got := s.run(cache, v)
			if diff := got.diff(ref); diff != "" {
				t.Fatalf("%s: %s run diverged from the closure run: %s", s, v.name, diff)
			}
		}
	})
}

// executorSeeds is the seed corpus: every step kind on S_4 … S_7, on
// meshes of one, two and three dimensions, and on Q_3 and Q_12.
func executorSeeds() [][]byte {
	steps := func(kinds int) []byte {
		var b []byte
		for k := range 2 * kinds {
			// Every kind twice, with rotating registers (source and
			// destination alias on some steps), dimensions, directions
			// and salts.
			b = append(b, byte(k%kinds), byte(k), byte(k+k/3), byte(3*k+1), byte(k/2), byte(17*k+5))
		}
		return b
	}
	header := func(family byte, shape ...byte) []byte {
		return append([]byte{family}, append(shape, 0x5a, 0xc3)...)
	}
	var seeds [][]byte
	for n := byte(0); n < 4; n++ {
		seeds = append(seeds, append(header(familyStar, n), steps(starKinds)...))
	}
	for _, shape := range [][]byte{
		{0, 0x0f, 0xfe},          // a line of 4096
		{1, 0, 62, 0, 62},        // 64 x 64
		{2, 0, 14, 0, 14, 0, 14}, // 16 x 16 x 16
		{1, 0, 1, 0, 3},          // 3 x 5
	} {
		seeds = append(seeds, append(header(familyMesh, shape...), steps(meshKinds)...))
	}
	for _, d := range []byte{2, 11} {
		seeds = append(seeds, append(header(familyCube, d), steps(cubeKinds)...))
	}
	return seeds
}

// Machine families and the number of step kinds each decodes. Kinds
// 0 and 1 are common to all: a SIMD-B route with pseudo-random ports
// and a masked SIMD-A route through one port.
const (
	familyStar = iota
	familyMesh
	familyCube

	starKinds = 7 // + mesh unit route, masked, Model A, masked Model A, broadcast
	meshKinds = 4 // + unit route, compare-exchange
	cubeKinds = 3 // + bit exchange
)

// fuzzMaxSteps bounds a schedule's length, and so one input's run
// time.
const fuzzMaxSteps = 16

// fuzzRegs are the registers a schedule routes between.
var fuzzRegs = [...]string{"A", "B", "C"}

// schedule is a decoded fuzz input.
type schedule struct {
	family int
	n      int   // star S_n or hypercube Q_n
	sides  []int // mesh
	seed   uint64
	steps  []step
}

// step is one schedule step. dim selects the dimension, port or bit;
// arg selects a compare-exchange's phase and whether it takes a mask;
// salt, derived from arg, the register seed and the step's position,
// keys the step's pure pseudo-random ports, mask or broadcast source.
type step struct {
	kind     int
	src, dst string
	dim, dir int
	arg      int
	salt     uint64
}

// byteReader hands out a fuzz input's bytes, then zeros.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

func decodeSchedule(data []byte) schedule {
	r := byteReader(data)
	s := schedule{family: r.next() % 3}
	kinds := starKinds
	switch s.family {
	case familyStar:
		s.n = 4 + r.next()%4
	case familyMesh:
		dims := 1 + r.next()%3
		maxSide := [...]int{4096, 64, 16}[dims-1]
		for range dims {
			s.sides = append(s.sides, 2+(r.next()<<8|r.next())%(maxSide-1))
		}
		kinds = meshKinds
	case familyCube:
		s.n = 1 + r.next()%12
		kinds = cubeKinds
	}
	s.seed = uint64(r.next()<<8 | r.next())
	for len(r) > 0 && len(s.steps) < fuzzMaxSteps {
		st := step{kind: r.next() % kinds, src: fuzzRegs[r.next()%3], dst: fuzzRegs[r.next()%3],
			dim: r.next(), dir: 1 - 2*(r.next()%2), arg: r.next()}
		st.salt = mix(s.seed<<16 | uint64(len(s.steps))<<8 | uint64(st.arg))
		s.steps = append(s.steps, st)
	}
	return s
}

func (s schedule) String() string {
	switch s.family {
	case familyStar:
		return fmt.Sprintf("S_%d, %d steps", s.n, len(s.steps))
	case familyMesh:
		return fmt.Sprintf("mesh %v, %d steps", s.sides, len(s.steps))
	default:
		return fmt.Sprintf("Q_%d, %d steps", s.n, len(s.steps))
	}
}

// execVariant is one path to run a schedule along.
type execVariant struct {
	name    string
	opts    []simd.Option
	replay  bool // run twice and keep the second run
	generic bool // star only: bypass the Lemma-3 route tables
}

// run executes the schedule on a fresh machine built for v and
// returns the state the (last) run left.
func (s schedule) run(cache *simd.PlanCache, v execVariant) runResult {
	m, do := s.machine(cache, v)
	runs := 1
	if v.replay {
		runs = 2
	}
	for range runs {
		m.Reset()
		for i, name := range fuzzRegs {
			m.Set(name, func(pe int) int64 { return int64(hashPE(s.seed+uint64(i), pe)) })
		}
		for i := range s.steps {
			do(i)
		}
	}
	res := runResult{stats: m.Stats(), uses: m.PortUses()}
	for h := range m.NumRegs() {
		res.regs = append(res.regs, slices.Clone(m.RegByHandle(h)))
	}
	return res
}

// machine builds the schedule's machine for v and returns it with the
// function that runs step i on it. Steps the machine layer does not
// plan itself run through the per-input plan cache, so a replay run
// replays them too.
func (s schedule) machine(cache *simd.PlanCache, v execVariant) (*simd.Machine, func(i int)) {
	var (
		m       *simd.Machine
		special func(i int, st step) // the family's own step kinds
		warm    func()               // star only
	)
	planned := func(i int, route func()) { m.RunPlanned(cache, strconv.Itoa(i), route) }
	switch s.family {
	case familyStar:
		sm := starsim.New(s.n, v.opts...)
		sm.SetRouteCache(!v.generic)
		m = sm.Machine
		warm = func() {
			// Build the route tables outside any recording: their lazy
			// build runs through Apply, which would make the first
			// run's recording of a masked step impure.
			for k := 1; k < s.n; k++ {
				sm.MeshUnitRoute(fuzzRegs[0], fuzzRegs[0], k, 1)
				sm.MeshUnitRoute(fuzzRegs[0], fuzzRegs[0], k, -1)
			}
		}
		special = func(i int, st step) {
			k := 1 + st.dim%(s.n-1)
			switch st.kind {
			case 2:
				sm.MeshUnitRoute(st.src, st.dst, k, st.dir)
			case 3:
				planned(i, func() { sm.MaskedMeshUnitRoute(st.src, st.dst, k, st.dir, randomMask(st.salt)) })
			case 4:
				sm.MeshUnitRouteModelA(st.src, st.dst, k, st.dir)
			case 5:
				planned(i, func() { sm.MaskedMeshUnitRouteModelA(st.src, st.dst, k, st.dir, randomMask(st.salt)) })
			case 6:
				sm.Broadcast(st.src, st.dst, int(st.salt%uint64(sm.Size())))
			}
		}
	case familyMesh:
		mm := meshsim.New(mesh.New(s.sides...), v.opts...)
		m = mm.Machine
		special = func(_ int, st step) {
			dim := st.dim % len(s.sides)
			switch st.kind {
			case 2:
				mm.UnitRoute(st.src, st.dst, dim, st.dir)
			case 3:
				var ascending func(int) bool
				if st.arg&2 != 0 {
					ascending = randomMask(st.salt)
				}
				mm.CompareExchange(st.src, dim, st.arg%2, ascending)
			}
		}
	case familyCube:
		cm := cubesim.New(s.n, v.opts...)
		m = cm.Machine
		special = func(_ int, st step) {
			if st.kind == 2 {
				cm.ExchangeBit(st.src, st.dst, st.dim%s.n)
			}
		}
	}
	for _, name := range fuzzRegs {
		m.AddReg(name)
	}
	if warm != nil && v.replay {
		warm()
	}
	return m, func(i int) {
		st := s.steps[i]
		switch st.kind {
		case 0:
			planned(i, func() { m.RouteB(st.src, st.dst, randomPorts(m.Topology(), st.salt)) })
		case 1:
			planned(i, func() { m.RouteA(st.src, st.dst, st.dim%m.Topology().Ports(), randomMask(st.salt)) })
		default:
			special(i, st)
		}
	}
}

// runResult is what a run leaves behind.
type runResult struct {
	stats simd.Stats
	uses  []int64
	regs  [][]int64
}

// diff describes the first difference from want ("" = identical).
func (r runResult) diff(want runResult) string {
	switch {
	case r.stats != want.stats:
		return fmt.Sprintf("stats %+v, want %+v", r.stats, want.stats)
	case !slices.Equal(r.uses, want.uses):
		return fmt.Sprintf("port uses %v, want %v", r.uses, want.uses)
	case len(r.regs) != len(want.regs):
		return fmt.Sprintf("%d registers, want %d", len(r.regs), len(want.regs))
	}
	for h := range r.regs {
		for pe, v := range r.regs[h] {
			if v != want.regs[h][pe] {
				return fmt.Sprintf("register %d at PE %d holds %d, want %d", h, pe, v, want.regs[h][pe])
			}
		}
	}
	return ""
}

// randomPorts picks a pure pseudo-random port per PE: silent about one
// time in ports+1 and where the port leads off the network.
// Independent choices collide at shared destinations, so receive
// conflicts are common.
func randomPorts(topo simd.Topology, salt uint64) simd.PortFunc {
	ports := uint64(topo.Ports())
	return func(pe int) int {
		p := int(hashPE(salt, pe)%(ports+1)) - 1
		if p >= 0 && topo.Neighbor(pe, p) < 0 {
			return -1
		}
		return p
	}
}

// randomMask selects a pure pseudo-random three PEs in four.
func randomMask(salt uint64) func(int) bool {
	return func(pe int) bool { return hashPE(salt, pe)%4 != 0 }
}

// hashPE is a pure pseudo-random value of (salt, pe).
func hashPE(salt uint64, pe int) uint64 { return mix(salt ^ mix(uint64(pe))) }

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

package sorting

import (
	"math/rand"
	"reflect"
	"testing"

	"starmesh/internal/mesh"
	"starmesh/internal/meshsim"
	"starmesh/internal/simd"
	"starmesh/internal/starsim"
)

func fillRandom(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	return vals
}

func TestShearSort2D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := [][]int{{4, 4}, {8, 4}, {3, 5}, {6, 6}, {2, 3}, {5, 2}}
	for _, s := range shapes {
		m := meshsim.New(mesh.New(s...))
		m.AddReg("K")
		vals := fillRandom(rng, m.M.Order())
		m.Set("K", func(pe int) int64 { return vals[pe] })
		res := ShearSort2D(m, "K")
		if !res.Sorted {
			t.Fatalf("%v: not snake-sorted", s)
		}
		if res.Conflicts != 0 {
			t.Fatalf("%v: conflicts", s)
		}
		// Route count: (rounds+1) row phases of 2b + rounds column
		// phases of 2a routes.
		b, a := s[0], s[1]
		rounds := 0
		for x := 1; x < a; x *= 2 {
			rounds++
		}
		want := (rounds+1)*2*b + rounds*2*a
		if res.UnitRoutes != want {
			t.Fatalf("%v: routes = %d, want %d", s, res.UnitRoutes, want)
		}
	}
}

func TestShearSortPanicsOn1D(t *testing.T) {
	m := meshsim.New(mesh.New(4))
	m.AddReg("K")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	ShearSort2D(m, "K")
}

func TestSnakeSortMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][]int{{2, 3}, {2, 3, 4}, {3, 4}, {5}, {2, 2, 3}}
	for _, s := range shapes {
		m := meshsim.New(mesh.New(s...))
		m.AddReg("K")
		vals := fillRandom(rng, m.M.Order())
		m.Set("K", func(pe int) int64 { return vals[pe] })
		res := SnakeSortMesh(m, "K")
		if !res.Sorted {
			t.Fatalf("%v: not sorted", s)
		}
		if res.Conflicts != 0 {
			t.Fatalf("%v: conflicts", s)
		}
	}
}

func TestSnakeSortStarMatchesMeshAndCostsAtMost3x(t *testing.T) {
	// The same workload sorted on D_n (mesh machine) and on S_n (star
	// machine via the embedding): identical final key placement,
	// star routes ≤ 3 × mesh routes, zero conflicts (Theorem 6).
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{3, 4, 5} {
		dn := mesh.D(n)
		N := dn.Order()
		vals := fillRandom(rng, N)

		mm := meshsim.New(dn)
		mm.AddReg("K")
		mm.Set("K", func(pe int) int64 { return vals[pe] })
		resMesh := SnakeSortMesh(mm, "K")

		sm := starsim.New(n)
		sm.AddReg("K")
		meshID := sm.MeshIDs()
		sm.Set("K", func(pe int) int64 { return vals[meshID[pe]] })
		resStar := SnakeSortStar(sm, "K", meshID)

		if !resMesh.Sorted || !resStar.Sorted {
			t.Fatalf("n=%d: sorted mesh=%v star=%v", n, resMesh.Sorted, resStar.Sorted)
		}
		if resStar.Conflicts != 0 {
			t.Fatalf("n=%d: star conflicts = %d", n, resStar.Conflicts)
		}
		if resStar.UnitRoutes > 3*resMesh.UnitRoutes {
			t.Fatalf("n=%d: star routes %d > 3×mesh routes %d",
				n, resStar.UnitRoutes, 3*resMesh.UnitRoutes)
		}
		// Same final arrangement, mesh-node-wise.
		for pe := 0; pe < sm.Size(); pe++ {
			if sm.Reg("K")[pe] != mm.Reg("K")[meshID[pe]] {
				t.Fatalf("n=%d: final keys differ at star PE %d", n, pe)
			}
		}
	}
}

func TestIsSortedHelpers(t *testing.T) {
	m := mesh.New(2, 2)
	keys := make([]int64, 4)
	for s := 0; s < 4; s++ {
		keys[m.SnakeIDAt(s)] = int64(s)
	}
	if !IsSortedBySnake(m, keys) {
		t.Fatalf("snake-ordered keys reported unsorted")
	}
	keys[m.SnakeIDAt(0)] = 99
	if IsSortedBySnake(m, keys) {
		t.Fatalf("unsorted keys reported sorted")
	}
}

func TestSnakeSortAlreadySorted(t *testing.T) {
	m := meshsim.New(mesh.New(3, 3))
	m.AddReg("K")
	for s := 0; s < 9; s++ {
		m.Reg("K")[m.M.SnakeIDAt(s)] = int64(s)
	}
	res := SnakeSortMesh(m, "K")
	if !res.Sorted {
		t.Fatalf("sorted input broke")
	}
}

func TestSnakeSortDuplicateKeys(t *testing.T) {
	m := meshsim.New(mesh.New(2, 3, 4))
	m.AddReg("K")
	m.Set("K", func(pe int) int64 { return int64(pe % 3) })
	if !SnakeSortMesh(m, "K").Sorted {
		t.Fatalf("duplicate keys broke sort")
	}
}

func BenchmarkShearSort16x16(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < b.N; i++ {
		m := meshsim.New(mesh.New(16, 16))
		m.AddReg("K")
		m.Set("K", func(pe int) int64 { return int64(rng.Intn(1 << 20)) })
		if !ShearSort2D(m, "K").Sorted {
			b.Fatalf("not sorted")
		}
	}
}

func BenchmarkSnakeSortStarN4(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	meshID := starsim.New(4).MeshIDs()
	for i := 0; i < b.N; i++ {
		sm := starsim.New(4)
		sm.AddReg("K")
		sm.Set("K", func(pe int) int64 { return int64(rng.Intn(1 << 20)) })
		if !SnakeSortStar(sm, "K", meshID).Sorted {
			b.Fatalf("not sorted")
		}
	}
}

func TestSnakeSortStarModelA(t *testing.T) {
	// SIMD-A execution sorts identically but pays the §4 O(n) factor
	// in unit routes relative to SIMD-B.
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{3, 4} {
		N := mesh.D(n).Order()
		vals := fillRandom(rng, N)

		smB := starsim.New(n)
		smB.AddReg("K")
		meshID := smB.MeshIDs()
		smB.Set("K", func(pe int) int64 { return vals[meshID[pe]] })
		resB := SnakeSortStar(smB, "K", meshID)

		smA := starsim.New(n)
		smA.AddReg("K")
		smA.Set("K", func(pe int) int64 { return vals[meshID[pe]] })
		resA := SnakeSortStarModelA(smA, "K", meshID)

		if !resA.Sorted {
			t.Fatalf("n=%d: model-A sort failed", n)
		}
		if resA.Conflicts != 0 {
			t.Fatalf("n=%d: model-A conflicts", n)
		}
		if resA.UnitRoutes < resB.UnitRoutes {
			t.Fatalf("n=%d: model A (%d) cheaper than model B (%d)?",
				n, resA.UnitRoutes, resB.UnitRoutes)
		}
		// The slowdown is bounded by the O(n) factor of Section 4.
		if resA.UnitRoutes > n*resB.UnitRoutes {
			t.Fatalf("n=%d: model-A routes %d exceed n x model-B %d",
				n, resA.UnitRoutes, n*resB.UnitRoutes)
		}
		for pe := range meshID {
			if smA.Reg("K")[pe] != smB.Reg("K")[pe] {
				t.Fatalf("n=%d: model A/B final keys differ", n)
			}
		}
	}
}

// TestSnakeSortPlansMatchClosure pins the per-parity phase plans:
// sorting with plan replay (the default) must produce the same
// Result and final keys as closure-resolved routing, on both the
// mesh machine and the star machine through the embedding.
func TestSnakeSortPlansMatchClosure(t *testing.T) {
	keys := []int64{9, 3, 7, 1, 12, 0, 5, 11, 2, 8, 10, 4, 6, 23, 13, 17, 21, 14, 19, 15, 22, 16, 20, 18}

	load := func(m *simd.Machine) {
		kr := m.Reg("K")
		copy(kr, keys)
	}

	// Mesh machine.
	mmPlan := meshsim.New(mesh.D(4))
	mmPlan.AddReg("K")
	load(mmPlan.Machine)
	resPlan := SnakeSortMesh(mmPlan, "K")

	mmClosure := meshsim.New(mesh.D(4), simd.WithPlans(false))
	mmClosure.AddReg("K")
	load(mmClosure.Machine)
	resClosure := SnakeSortMesh(mmClosure, "K")

	if resPlan != resClosure {
		t.Fatalf("mesh results diverged: plan %+v, closure %+v", resPlan, resClosure)
	}
	if !reflect.DeepEqual(mmPlan.Reg("K"), mmClosure.Reg("K")) {
		t.Fatalf("mesh keys diverged")
	}
	if mmPlan.Stats() != mmClosure.Stats() {
		t.Fatalf("mesh stats diverged: %+v vs %+v", mmPlan.Stats(), mmClosure.Stats())
	}

	// Star machine through the embedding.
	meshID := starsim.New(4).MeshIDs()
	smPlan := starsim.New(4)
	smPlan.AddReg("K")
	load(smPlan.Machine)
	starPlan := SnakeSortStar(smPlan, "K", meshID)

	smClosure := starsim.New(4, simd.WithPlans(false))
	smClosure.AddReg("K")
	load(smClosure.Machine)
	starClosure := SnakeSortStar(smClosure, "K", meshID)

	if starPlan != starClosure {
		t.Fatalf("star results diverged: plan %+v, closure %+v", starPlan, starClosure)
	}
	if !reflect.DeepEqual(smPlan.Reg("K"), smClosure.Reg("K")) {
		t.Fatalf("star keys diverged")
	}
	if smPlan.Stats() != smClosure.Stats() {
		t.Fatalf("star stats diverged: %+v vs %+v", smPlan.Stats(), smClosure.Stats())
	}
	if !starPlan.Sorted || starPlan.Conflicts != 0 {
		t.Fatalf("star plan sort unsound: %+v", starPlan)
	}
}

// TestShearSortPlansMatchClosure does the same for the shear sort's
// compare-exchange plans.
func TestShearSortPlansMatchClosure(t *testing.T) {
	n := 8 * 4
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64((i*13 + 5) % n)
	}
	run := func(opts ...simd.Option) (Result, []int64, simd.Stats) {
		m := meshsim.New(mesh.New(4, 8), opts...)
		m.AddReg("K")
		copy(m.Reg("K"), keys)
		res := ShearSort2D(m, "K")
		return res, append([]int64(nil), m.Reg("K")...), m.Stats()
	}
	resPlan, keysPlan, statsPlan := run()
	resClosure, keysClosure, statsClosure := run(simd.WithPlans(false))
	if resPlan != resClosure || statsPlan != statsClosure || !reflect.DeepEqual(keysPlan, keysClosure) {
		t.Fatalf("shear sort diverged:\nplan    %+v %+v\nclosure %+v %+v", resPlan, statsPlan, resClosure, statsClosure)
	}
	if !resPlan.Sorted {
		t.Fatalf("shear sort failed to sort")
	}
}

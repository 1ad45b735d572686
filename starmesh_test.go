package starmesh_test

import (
	"testing"

	"starmesh"
	"starmesh/internal/simd"
)

func TestFacadeMapUnmap(t *testing.T) {
	p := starmesh.MapMeshNode([]int{1, 0, 3})
	if p.String() != "(0 3 1 2)" {
		t.Fatalf("MapMeshNode = %v", p)
	}
	pt := starmesh.UnmapStarNode(p)
	want := []int{1, 0, 3}
	for i := range want {
		if pt[i] != want[i] {
			t.Fatalf("UnmapStarNode = %v", pt)
		}
	}
}

func TestFacadeNewPerm(t *testing.T) {
	if _, err := starmesh.NewPerm([]int{0, 0}); err == nil {
		t.Fatalf("invalid perm accepted")
	}
	p, err := starmesh.NewPerm([]int{2, 1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "(3 0 1 2)" {
		t.Fatalf("perm display %q", p)
	}
	if !starmesh.IdentityPerm(3).IsIdentity() {
		t.Fatalf("identity wrong")
	}
}

func TestFacadeStar(t *testing.T) {
	s := starmesh.NewStar(4)
	if s.N() != 4 || s.Order() != 24 || s.Degree() != 3 || s.Diameter() != 4 {
		t.Fatalf("star accessors wrong")
	}
	if len(s.Neighbors(0)) != 3 {
		t.Fatalf("neighbors wrong")
	}
	if s.ID(s.Node(7)) != 7 {
		t.Fatalf("node/id roundtrip")
	}
	if r := s.BroadcastRounds(0); r < 5 {
		t.Fatalf("broadcast rounds = %d", r)
	}
}

func TestFacadeMeshNeighborAndPath(t *testing.T) {
	p := starmesh.MapMeshNode([]int{0, 0, 0})
	q, ok := starmesh.MeshNeighbor(p, 2, +1)
	if !ok {
		t.Fatalf("neighbor missing")
	}
	if d := starmesh.StarDistance(p, q); d != 3 {
		t.Fatalf("distance = %d", d)
	}
	path, ok := starmesh.EdgePath(p, 2, +1)
	if !ok || len(path) != 4 || !path[3].Equal(q) {
		t.Fatalf("path wrong: %v", path)
	}
	route := starmesh.StarRoute(p, q)
	if len(route)-1 != 3 {
		t.Fatalf("route length %d", len(route)-1)
	}
}

func TestFacadeEmbedding(t *testing.T) {
	e := starmesh.NewEmbedding(4)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Dilation() != 3 {
		t.Fatalf("dilation = %d", e.Dilation())
	}
	m := e.Metrics()
	if m.Expansion != 1 || m.Dilation != 3 {
		t.Fatalf("metrics = %+v", m)
	}
	d := starmesh.NewDMesh(4)
	if e.HostID(d.ID([]int{1, 0, 3})) != starmesh.NewStar(4).ID(starmesh.MapMeshNode([]int{1, 0, 3})) {
		t.Fatalf("HostID mismatch")
	}
}

func TestFacadeDMesh(t *testing.T) {
	d := starmesh.NewDMesh(5)
	if d.Order() != 120 || d.Dims() != 4 {
		t.Fatalf("DMesh shape wrong")
	}
	if d.ID(d.Coords(77)) != 77 {
		t.Fatalf("coords roundtrip")
	}
}

func TestFacadeMachines(t *testing.T) {
	mm := starmesh.NewMeshMachine([]int{2, 3})
	mm.AddReg("A")
	mm.AddReg("B")
	mm.Set("A", func(pe int) int64 { return int64(pe) })
	mm.UnitRoute("A", "B", 1, +1)
	if mm.Stats().UnitRoutes != 1 {
		t.Fatalf("mesh machine route count")
	}

	sm := starmesh.NewStarMachine(4)
	sm.AddReg("A")
	sm.AddReg("B")
	sm.Set("A", func(pe int) int64 { return int64(pe) })
	routes, conflicts := sm.MeshUnitRoute("A", "B", 2, +1)
	if routes != 3 || conflicts != 0 {
		t.Fatalf("star machine unit route: %d routes %d conflicts", routes, conflicts)
	}

	dm := starmesh.NewDMeshMachine(4)
	if dm.Size() != 24 {
		t.Fatalf("D-mesh machine size")
	}
}

func TestFacadeRectEmbedding(t *testing.T) {
	e := starmesh.NewRectEmbedding(5, 2)
	if e.Dilation() != 3 {
		t.Fatalf("rect dilation = %d", e.Dilation())
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeEngineOptions drives machines built with the exported
// engine option and checks through the facade that plan replay and
// closure resolution agree.
func TestFacadeEngineOptions(t *testing.T) {
	run := func(opts ...starmesh.EngineOption) ([]int64, int) {
		sm := starmesh.NewStarMachine(4, opts...)
		// An empty schedule compiles to a plan exactly when plans are on.
		if p, _, _ := sm.RunPlanned(simd.NewPlanCache(), "probe", func() {}); (p == nil) != (len(opts) > 0) {
			t.Fatalf("RunPlanned returned plan %v with %d options", p, len(opts))
		}
		sm.AddReg("A")
		sm.AddReg("B")
		sm.Set("A", func(pe int) int64 { return int64(2*pe + 1) })
		total := 0
		for range 2 { // with plans on, the second pass replays them
			for k := 1; k <= 3; k++ {
				routes, conflicts := sm.MeshUnitRoute("A", "B", k, +1)
				if conflicts != 0 {
					t.Fatalf("conflicts on dim %d", k)
				}
				total += routes
			}
		}
		return append([]int64(nil), sm.Reg("B")...), total
	}
	planRegs, planRoutes := run()
	closureRegs, closureRoutes := run(starmesh.WithPlans(false))
	if planRoutes != closureRoutes {
		t.Fatalf("route counts diverged: %d vs %d", planRoutes, closureRoutes)
	}
	for pe := range planRegs {
		if planRegs[pe] != closureRegs[pe] {
			t.Fatalf("PE %d register diverged: %d vs %d", pe, planRegs[pe], closureRegs[pe])
		}
	}

	mm := starmesh.NewMeshMachine([]int{3, 4}, starmesh.WithPlans(false))
	mm.AddReg("K")
	mm.Set("K", func(pe int) int64 { return int64(12 - pe) })
	mm.UnitRoute("K", "K", 0, +1)
	if mm.Stats().UnitRoutes != 1 {
		t.Fatalf("mesh machine with plans off: %+v", mm.Stats())
	}
}

func TestFacadeVirtualMachine(t *testing.T) {
	vm := starmesh.NewVirtualMachine(3)
	vm.AddReg("A")
	vm.AddReg("B")
	vm.Set("A", func(bigID int) int64 { return int64(bigID) })
	routes := vm.UnitRoute("A", "B", 1, +1)
	if routes > 3*4 {
		t.Fatalf("virtual route cost %d", routes)
	}
	if vm.Big.Order() != 24 || vm.SM.Size() != 6 {
		t.Fatalf("virtual shape wrong")
	}
}

func TestFacadeJobService(t *testing.T) {
	svc, err := starmesh.NewJobService(starmesh.ServiceConfig{Workers: 2, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	job, err := svc.Submit(starmesh.JobSpec{Kind: starmesh.JobSort, N: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	svc.Drain() // graceful: the admitted job completes first
	done, ok := svc.Job(job.ID)
	if !ok || done.Status != "done" || done.Result == nil || !done.Result.OK {
		t.Fatalf("facade job did not finish clean: %+v", done)
	}
	if stats := svc.Stats(); stats.Done != 1 || !stats.Draining {
		t.Fatalf("facade stats wrong: %+v", stats)
	}
}

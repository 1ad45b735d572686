package starsim

import (
	"testing"

	"starmesh/internal/core"
	"starmesh/internal/mesh"
	"starmesh/internal/perm"
	"starmesh/internal/simd"
	"starmesh/internal/star"
)

func TestTopoMatchesStarEdges(t *testing.T) {
	topo := NewTopo(4)
	if topo.Size() != 24 || topo.Ports() != 3 || topo.N() != 4 {
		t.Fatalf("topo shape wrong")
	}
	perm.All(4, func(p perm.Perm) bool {
		id := int(p.Rank())
		for i := 0; i < 3; i++ {
			want := int(p.SwapPositions(3, i).Rank())
			if topo.Neighbor(id, i) != want {
				t.Fatalf("neighbor table wrong at %v port %d", p, i)
			}
		}
		return true
	})
}

func TestPermCache(t *testing.T) {
	m := New(4)
	for id := 0; id < 24; id++ {
		if int(m.Perm(id).Rank()) != id {
			t.Fatalf("perm cache wrong at %d", id)
		}
	}
}

// runUnitRoute initializes src[pe]=pe, runs the embedded-mesh unit
// route, and checks the data landed exactly at the mapped mesh
// neighbors. Returns (routes, conflicts).
func runUnitRoute(t *testing.T, n, k, dir int) (int, int) {
	t.Helper()
	m := New(n)
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(pe int) int64 { return int64(pe) })
	m.Set("B", func(pe int) int64 { return -1 })
	routes, conflicts := m.MeshUnitRoute("A", "B", k, dir)

	dn := mesh.D(n)
	for u := 0; u < dn.Order(); u++ {
		v := dn.Step(u, k-1, dir)
		if v == -1 {
			continue
		}
		su := core.MapID(n, u)
		sv := core.MapID(n, v)
		if m.Reg("B")[sv] != int64(su) {
			t.Fatalf("n=%d k=%d dir=%d: mesh %d->%d: B[%d]=%d, want %d",
				n, k, dir, u, v, sv, m.Reg("B")[sv], su)
		}
	}
	// PEs that are not destinations keep their old value.
	isDst := make(map[int]bool)
	for u := 0; u < dn.Order(); u++ {
		if v := dn.Step(u, k-1, dir); v != -1 {
			isDst[core.MapID(n, v)] = true
		}
	}
	for pe := 0; pe < m.Size(); pe++ {
		if !isDst[pe] && m.Reg("B")[pe] != -1 {
			t.Fatalf("non-destination PE %d modified", pe)
		}
	}
	return routes, conflicts
}

func TestTheorem6AllDimensionsExhaustive(t *testing.T) {
	// For n = 3..6, every dimension and direction: the unit route
	// completes correctly in ≤ 3 star routes with zero conflicts
	// (Lemma 5 / Theorem 6).
	for n := 3; n <= 6; n++ {
		for k := 1; k <= n-1; k++ {
			for _, dir := range []int{+1, -1} {
				routes, conflicts := runUnitRoute(t, n, k, dir)
				wantRoutes := 3
				if k == n-1 {
					wantRoutes = 1
				}
				if routes != wantRoutes {
					t.Fatalf("n=%d k=%d dir=%d: %d routes, want %d", n, k, dir, routes, wantRoutes)
				}
				if conflicts != 0 {
					t.Fatalf("n=%d k=%d dir=%d: %d conflicts (Lemma 5 violated!)", n, k, dir, conflicts)
				}
			}
		}
	}
}

func TestTheorem6N7Spot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, k := range []int{1, 3, 6} {
		routes, conflicts := runUnitRoute(t, 7, k, +1)
		if conflicts != 0 {
			t.Fatalf("n=7 k=%d: conflicts = %d", k, conflicts)
		}
		if k == 6 && routes != 1 || k != 6 && routes != 3 {
			t.Fatalf("n=7 k=%d: routes = %d", k, routes)
		}
	}
}

func TestModelASimulation(t *testing.T) {
	// The same data movement on a SIMD-A star machine: correct and
	// bounded by 2+k routes (k < n-1) or n-1 routes (k = n-1).
	for n := 3; n <= 5; n++ {
		for k := 1; k <= n-1; k++ {
			for _, dir := range []int{+1, -1} {
				m := New(n)
				m.AddReg("A")
				m.AddReg("B")
				m.Set("A", func(pe int) int64 { return int64(pe) })
				m.Set("B", func(pe int) int64 { return -1 })
				routes := m.MeshUnitRouteModelA("A", "B", k, dir)
				bound := 2 + k
				if k == n-1 {
					bound = n - 1
				}
				if routes > bound {
					t.Fatalf("n=%d k=%d: model-A routes %d > bound %d", n, k, routes, bound)
				}
				if m.Stats().ReceiveConflicts != 0 {
					t.Fatalf("model-A conflicts")
				}
				dn := mesh.D(n)
				for u := 0; u < dn.Order(); u++ {
					v := dn.Step(u, k-1, dir)
					if v == -1 {
						continue
					}
					if m.Reg("B")[core.MapID(n, v)] != int64(core.MapID(n, u)) {
						t.Fatalf("n=%d k=%d dir=%d: model-A data wrong", n, k, dir)
					}
				}
			}
		}
	}
}

func TestMeshUnitRoutePanics(t *testing.T) {
	m := New(3)
	m.AddReg("A")
	m.AddReg("B")
	for _, bad := range []struct{ k, dir int }{{0, 1}, {3, 1}, {1, 0}, {1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d dir=%d did not panic", bad.k, bad.dir)
				}
			}()
			m.MeshUnitRoute("A", "B", bad.k, bad.dir)
		}()
	}
}

func TestRoundTripUnitRoutes(t *testing.T) {
	// +k then -k restores interior values (composition sanity).
	n := 5
	m := New(n)
	m.AddReg("A")
	m.AddReg("B")
	m.AddReg("C")
	m.Set("A", func(pe int) int64 { return int64(3*pe + 1) })
	k := 2
	m.MeshUnitRoute("A", "B", k, +1)
	m.MeshUnitRoute("B", "C", k, -1)
	dn := mesh.D(n)
	for u := 0; u < dn.Order(); u++ {
		if dn.Step(u, k-1, +1) == -1 {
			continue
		}
		pe := core.MapID(n, u)
		if m.Reg("C")[pe] != int64(3*pe+1) {
			t.Fatalf("roundtrip failed at mesh %d", u)
		}
	}
}

func TestBroadcastInformsAll(t *testing.T) {
	n := 5
	m := New(n)
	m.AddReg("V")
	m.AddReg("W")
	src := 17
	m.Set("V", func(pe int) int64 {
		if pe == src {
			return 424242
		}
		return 0
	})
	rounds := m.Broadcast("V", "W", src)
	for pe := 0; pe < m.Size(); pe++ {
		if m.Reg("W")[pe] != 424242 {
			t.Fatalf("PE %d not informed", pe)
		}
	}
	if rounds < 7 { // ceil(log2 120)
		t.Fatalf("rounds %d below information bound", rounds)
	}
	if m.Stats().ReceiveConflicts != 0 {
		t.Fatalf("broadcast conflicts")
	}
}

func BenchmarkMeshUnitRoute(b *testing.B) {
	m := New(7)
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(pe int) int64 { return int64(pe) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MeshUnitRoute("A", "B", 3, +1)
	}
}

func BenchmarkNewMachine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = New(7)
	}
}

func TestMeshIDsMatchesUnmapAndSurvivesReset(t *testing.T) {
	m := New(4)
	ids := m.MeshIDs()
	for pe := range ids {
		if want := core.UnmapID(4, pe); ids[pe] != want {
			t.Fatalf("MeshIDs[%d] = %d, want %d", pe, ids[pe], want)
		}
	}
	m.Reset()
	again := m.MeshIDs()
	if &again[0] != &ids[0] {
		t.Fatal("MeshIDs rebuilt after Reset; the cache should survive")
	}
}

// TestBroadcastMatchesGreedyBroadcast pins the star machine's flood
// to the greedy SIMD-B schedule on the bare graph: for every n and a
// spread of sources the machine uses exactly the rounds
// star.GreedyBroadcast counts, informs every PE, and does so with
// plans on and off.
func TestBroadcastMatchesGreedyBroadcast(t *testing.T) {
	for n := 2; n <= 7; n++ {
		g := star.New(n)
		order := g.Order()
		for _, src := range []int{0, 1, order / 3, order / 2, order - 1} {
			want := g.GreedyBroadcast(src)
			for _, plans := range []bool{true, false} {
				m := New(n, simd.WithPlans(plans))
				m.AddReg("V")
				m.AddReg("W")
				m.Set("V", func(pe int) int64 { return int64(1000 + pe) })
				m.Set("W", func(pe int) int64 { return -1 })
				if got := m.Broadcast("V", "W", src); got != want {
					t.Fatalf("n=%d src=%d plans=%v: %d rounds, star.GreedyBroadcast counts %d", n, src, plans, got, want)
				}
				for pe, v := range m.Reg("W") {
					if v != int64(1000+src) {
						t.Fatalf("n=%d src=%d plans=%v: PE %d holds %d, want %d", n, src, plans, pe, v, 1000+src)
					}
				}
			}
		}
	}
}

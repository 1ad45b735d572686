package starsim

import (
	"reflect"
	"testing"

	"starmesh/internal/simd"
)

// starProgram exercises every data-movement primitive of the star
// machine: Theorem-6 unit routes in both models across all
// dimensions and directions, a masked route, and a broadcast.
func starProgram(m *Machine) (simd.Stats, []int64, [][]int64) {
	m.AddReg("V")
	m.AddReg("W")
	m.Set("V", func(pe int) int64 { return int64(7*pe + 3) })
	m.Set("W", func(pe int) int64 { return -1 })
	for k := 1; k <= m.N-1; k++ {
		for _, dir := range []int{+1, -1} {
			m.MeshUnitRoute("V", "W", k, dir)
			m.MeshUnitRouteModelA("W", "V", k, dir)
		}
	}
	m.MaskedMeshUnitRoute("V", "W", 1, +1, func(pe int) bool { return pe%2 == 0 })
	m.Broadcast("V", "W", 1)
	return m.Stats(), m.PortUses(), [][]int64{
		append([]int64(nil), m.Reg("V")...),
		append([]int64(nil), m.Reg("W")...),
	}
}

// TestRouteCacheMatchesGeneric pins the table-driven unit-route
// schedule to the original closure-per-PE reference implementation.
func TestRouteCacheMatchesGeneric(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		cached := New(n)
		cachedStats, cachedUses, cachedRegs := starProgram(cached)
		generic := New(n)
		generic.SetRouteCache(false)
		genStats, genUses, genRegs := starProgram(generic)
		if cachedStats != genStats {
			t.Errorf("n=%d: cached stats %+v != generic %+v", n, cachedStats, genStats)
		}
		if !reflect.DeepEqual(cachedUses, genUses) {
			t.Errorf("n=%d: port uses diverged", n)
		}
		if !reflect.DeepEqual(cachedRegs, genRegs) {
			t.Errorf("n=%d: register contents diverged", n)
		}
	}
}

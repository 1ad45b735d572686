package virtual

import (
	"math/rand"
	"slices"
	"testing"

	"starmesh/internal/mesh"
	"starmesh/internal/meshsim"
)

func TestLocateIsBijective(t *testing.T) {
	m := New(4) // D_5 on S_4
	seen := map[[2]int]bool{}
	for bigID := 0; bigID < m.Big.Order(); bigID++ {
		pe, slot := m.Locate(bigID)
		if pe < 0 || pe >= m.SM.Size() || slot < 0 || slot >= m.Slots {
			t.Fatalf("locate out of range")
		}
		key := [2]int{pe, slot}
		if seen[key] {
			t.Fatalf("two virtual nodes share (pe,slot) %v", key)
		}
		seen[key] = true
	}
	if len(seen) != m.Big.Order() {
		t.Fatalf("coverage wrong")
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	m := New(3)
	m.AddReg("V")
	m.Set("V", func(bigID int) int64 { return int64(bigID * 3) })
	for bigID := 0; bigID < m.Big.Order(); bigID++ {
		if m.Get("V", bigID) != int64(bigID*3) {
			t.Fatalf("get/set mismatch at %d", bigID)
		}
	}
}

// TestUnitRouteMatchesRealMachine runs every dimension/direction on
// the virtual machine and on a genuine (n+1)!-PE mesh machine and
// compares all values.
func TestUnitRouteMatchesRealMachine(t *testing.T) {
	for _, n := range []int{3, 4} {
		vm := New(n)
		vm.AddReg("A")
		vm.AddReg("B")
		big := mesh.D(n + 1)
		keys := uniformKeys(big.Order(), int64(n))

		for k := 1; k <= n; k++ {
			for _, dir := range []int{+1, -1} {
				vm.Set("A", func(bigID int) int64 { return keys[bigID] })
				vm.Set("B", func(bigID int) int64 { return -1 })
				routes := vm.UnitRoute("A", "B", k, dir)

				// Reference: real mesh machine with (n+1)! PEs.
				mm := meshsim.New(big)
				mm.EnsureReg("A")
				mm.EnsureReg("B")
				mm.Set("A", func(pe int) int64 { return keys[pe] })
				mm.Set("B", func(pe int) int64 { return -1 })
				mm.UnitRoute("A", "B", k-1, dir)

				for bigID := 0; bigID < big.Order(); bigID++ {
					want := mm.Reg("B")[bigID]
					// The virtual machine leaves non-destinations
					// untouched; the mesh machine writes only
					// destinations too — but dst starts at -1 in
					// both, so direct comparison works except that
					// UnitRoute on meshsim writes only receivers.
					if got := vm.Get("B", bigID); got != want {
						t.Fatalf("n=%d k=%d dir=%d: bigID %d: got %d want %d",
							n, k, dir, bigID, got, want)
					}
				}
				if k == n && routes != 0 {
					t.Fatalf("slot dimension cost %d routes, want 0", routes)
				}
				if k < n && routes > 3*(n+1) {
					t.Fatalf("k=%d cost %d routes, bound %d", k, routes, 3*(n+1))
				}
			}
		}
	}
}

func TestUnitRoutePanics(t *testing.T) {
	m := New(3)
	m.AddReg("A")
	m.AddReg("B")
	for _, bad := range []struct{ k, dir int }{{0, 1}, {4, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d dir=%d did not panic", bad.k, bad.dir)
				}
			}()
			m.UnitRoute("A", "B", bad.k, bad.dir)
		}()
	}
}

func TestAmortizedCostPerVirtualNode(t *testing.T) {
	// Cost per unit route ≤ 3(n+1) physical routes for (n+1)·n!
	// virtual nodes: amortized ≤ 3 per n! PEs worth of work, the
	// same constant as the direct embedding.
	m := New(4)
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(bigID int) int64 { return int64(bigID) })
	routes := m.UnitRoute("A", "B", 2, +1)
	if routes != 3*(4+1) {
		t.Fatalf("routes = %d, want %d", routes, 15)
	}
}

func BenchmarkVirtualUnitRoute(b *testing.B) {
	m := New(5) // D_6 (720 virtual nodes) on S_5 (120 PEs)
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(bigID int) int64 { return int64(bigID) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.UnitRoute("A", "B", 1+i%4, +1)
	}
}

// TestMaskedUnitRouteMatchesMeshReference drives seeded random masks
// along every (k, dir) of D_{n+1} and checks every virtual node
// against a direct reference on the mesh: a selected node with a
// (k, dir) neighbor b' sends, so dst[b'] = src[b]; every other dst
// value is unchanged. The second pass repeats on the same machine
// after Reset, as a pooled job would.
func TestMaskedUnitRouteMatchesMeshReference(t *testing.T) {
	for n := 2; n <= 4; n++ {
		m := New(n)
		order := m.Big.Order()
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				m.Reset()
			}
			m.EnsureReg("A")
			m.EnsureReg("B")
			rng := rand.New(rand.NewSource(int64(10*n + pass)))
			for k := 1; k <= n; k++ {
				for _, dir := range []int{+1, -1} {
					src := make([]int64, order)
					dst := make([]int64, order)
					sel := make([]bool, order)
					for b := range src {
						src[b], dst[b], sel[b] = rng.Int63(), -rng.Int63(), rng.Intn(2) == 0
					}
					want := slices.Clone(dst)
					for b, on := range sel {
						if to := m.Big.Step(b, k-1, dir); on && to != -1 {
							want[to] = src[b]
						}
					}
					m.Set("A", func(b int) int64 { return src[b] })
					m.Set("B", func(b int) int64 { return dst[b] })
					m.MaskedUnitRoute("A", "B", k, dir, func(b int) bool { return sel[b] })
					for b := range want {
						if got := m.Get("B", b); got != want[b] {
							t.Fatalf("n=%d pass=%d k=%d dir=%d: node %d holds %d, want %d",
								n, pass, k, dir, b, got, want[b])
						}
					}
				}
			}
		}
	}
}

func TestMaskedUnitRouteSlotShuffleInPlace(t *testing.T) {
	// src == dst along the slot dimension must not clobber values.
	m := New(3)
	m.AddReg("A")
	m.Set("A", func(bigID int) int64 { return int64(bigID) })
	m.MaskedUnitRoute("A", "A", 3, +1, nil)
	for bigID := 0; bigID < m.Big.Order(); bigID++ {
		from := m.Big.Step(bigID, 2, -1) // slot dim is big dim index 2
		if from == -1 {
			continue // slot 0 keeps its stale value; not asserted
		}
		if m.Get("A", bigID) != int64(from) {
			t.Fatalf("in-place slot shuffle clobbered at %d", bigID)
		}
	}
}

// uniformKeys generates deterministic pseudo-random keys in
// [0, 4N] — the test fixture formerly drawn from the workload
// package, inlined here because workload now depends on virtual.
func uniformKeys(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(4*n + 1))
	}
	return out
}

// The virtual machine's snake sort runs through package sorting,
// which imports package virtual, so its tests live in this external
// test package.
package virtual_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"starmesh/internal/meshops"
	"starmesh/internal/sorting"
	"starmesh/internal/virtual"
)

// TestVirtualSnakeSort sorts (n+1)! keys on n! physical PEs and
// checks the result position by position: the node at snake
// position s holds exactly the s-th smallest key.
func TestVirtualSnakeSort(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		vm := virtual.New(n)
		vm.AddReg("K")
		keys := virtual.UniformKeys(vm.Big.Order(), int64(n))
		vm.Set("K", func(bigID int) int64 { return keys[bigID] })
		res, err := sorting.NewVirtualSort(vm).Sort(context.Background(), "K")
		if err != nil || !res.Sorted {
			t.Fatalf("n=%d: virtual snake sort failed (%v)", n, err)
		}
		if res.UnitRoutes <= 0 {
			t.Fatalf("n=%d: no routes recorded", n)
		}
		want := slices.Sorted(slices.Values(keys))
		for s, bigID := range meshops.NewSnakePlan(vm.Big).IDAt {
			if got := vm.Get("K", bigID); got != want[s] {
				t.Fatalf("n=%d: snake position %d (node %d) holds %d, want %d", n, s, bigID, got, want[s])
			}
		}
	}
}

// TestSnakeSortGoldenRouteCounts pins the physical unit routes of
// one virtual snake sort for n = 2..5. The schedule depends only on
// the snake plan, never on the keys, so each count is a constant of
// n; the sort repeats on the same machine after Reset, the pooled
// path, and must cost the same.
func TestSnakeSortGoldenRouteCounts(t *testing.T) {
	golden := []struct{ n, routes int }{{2, 36}, {3, 768}, {4, 8400}, {5, 86400}}
	for _, g := range golden {
		t.Run(fmt.Sprintf("n=%d", g.n), func(t *testing.T) {
			if g.n == 5 && testing.Short() {
				t.Skip("n=5 sorts 720 keys over 720 phases; skipped under -short")
			}
			vm := virtual.New(g.n)
			vs := sorting.NewVirtualSort(vm)
			for pass := 0; pass < 2; pass++ {
				vm.Reset()
				vm.EnsureReg("K")
				keys := virtual.UniformKeys(vm.Big.Order(), int64(pass))
				vm.Set("K", func(bigID int) int64 { return keys[bigID] })
				res, err := vs.Sort(context.Background(), "K")
				if err != nil || !res.Sorted || res.UnitRoutes != g.routes {
					t.Fatalf("pass %d: sorted=%v routes=%d (%v), want sorted with %d routes", pass, res.Sorted, res.UnitRoutes, err, g.routes)
				}
			}
		})
	}
}

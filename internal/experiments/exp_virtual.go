package experiments

import (
	"fmt"
	"io"

	"starmesh/internal/exptab"
	"starmesh/internal/perm"
	"starmesh/internal/virtual"
	"starmesh/internal/workload"
)

// Virtualization measures running the larger mesh D_{n+1} on S_n
// with n+1 virtual nodes per PE: unit routes along old dimensions
// cost ≤ 3(n+1) physical routes (amortized ≤ 3 per virtual node) and
// the new dimension is free.
func Virtualization(w io.Writer) error {
	t := exptab.New("Virtualization: D_{n+1} on S_n (n+1 virtual nodes per PE)",
		"n", "virtual-nodes", "physical-PEs", "dim", "routes", "bound 3(n+1)", "data-ok")
	for _, n := range []int{3, 4, 5} {
		vm := virtual.New(n)
		vm.AddReg("A")
		vm.AddReg("B")
		keys := workload.Keys(workload.Uniform, vm.Big.Order(), int64(n))
		for _, k := range []int{1, n - 1, n} {
			vm.Set("A", func(bigID int) int64 { return keys[bigID] })
			vm.Set("B", func(bigID int) int64 { return -1 })
			routes := vm.UnitRoute("A", "B", k, +1)
			ok := true
			for bigID := 0; bigID < vm.Big.Order(); bigID++ {
				to := vm.Big.Step(bigID, k-1, +1)
				if to == -1 {
					continue
				}
				if vm.Get("B", to) != keys[bigID] {
					ok = false
				}
			}
			bound := 3 * (n + 1)
			if k == n {
				bound = 0
			}
			t.Add(n, vm.Big.Order(), int(perm.Factorial(n)), k, routes, bound, ok)
			if !ok || routes > bound {
				return fmt.Errorf("virtualization broken at n=%d k=%d", n, k)
			}
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\na mesh larger than the machine still runs at amortized route factor <= 3;")
	fmt.Fprintln(w, "the virtual dimension d_n is an intra-PE slot shuffle and costs nothing")

	// End-to-end: sort (n+1)! keys on n! PEs.
	t2 := exptab.New("\nVirtual snake sort: (n+1)! keys on n! PEs",
		"n", "keys", "PEs", "physical-routes", "sorted")
	for _, n := range []int{3, 4} {
		vm := virtual.New(n)
		vm.AddReg("K")
		keys := workload.Keys(workload.Uniform, vm.Big.Order(), 7)
		vm.Set("K", func(bigID int) int64 { return keys[bigID] })
		sorted, routes := vm.SnakeSort("K")
		t2.Add(n, vm.Big.Order(), int(perm.Factorial(n)), routes, sorted)
		if !sorted {
			return fmt.Errorf("virtual sort failed at n=%d", n)
		}
	}
	t2.Fprint(w)
	return nil
}

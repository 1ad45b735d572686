package experiments

import (
	"fmt"
	"io"

	"starmesh/internal/atallah"
	"starmesh/internal/core"
	"starmesh/internal/cubesim"
	"starmesh/internal/exptab"
	"starmesh/internal/mesh"
	"starmesh/internal/meshsim"
	"starmesh/internal/perm"
	"starmesh/internal/sorting"
	"starmesh/internal/starsim"
	"starmesh/internal/workload"
)

// AtallahSimulation measures the block-scaling simulation of uniform
// meshes on the appendix's rectangular factorizations of n!.
func AtallahSimulation(w io.Writer) error {
	t := exptab.New("Theorems 7-8: uniform d-mesh on rectangular factorization of n!",
		"n", "d", "sides", "l-ratio", "ratio-bound nd", "max-load", "dilation", "slowdown", "theorem-8 bound")
	for _, n := range []int{6, 7, 8} {
		for d := 2; d <= 4; d++ {
			f := atallah.Factorize(n, d)
			host := f.RectMesh()
			sim := atallah.NewSimulation(atallah.UniformGuest(host), host)
			m := sim.Measure()
			t.Add(n, d, sidesString(host), f.Ratio(), f.RatioBound(),
				m.MaxLoad, m.Dilation, m.Slowdown, m.Theorem8)
			if float64(m.Dilation) > m.Theorem8 {
				return fmt.Errorf("dilation exceeds Theorem-8 bound at n=%d d=%d", n, d)
			}
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nshape check: slowdown tracks (max_i l_i)·2d/N^(1/d); lopsided hosts (small d) pay more")
	return nil
}

func sidesString(m *mesh.Mesh) string {
	s := ""
	for j := 0; j < m.Dims(); j++ {
		if j > 0 {
			s += "x"
		}
		s += fmt.Sprint(m.Size(j))
	}
	return s
}

// Theorem9 tabulates the weak upper bound for simulating uniform
// meshes directly on the star graph.
func Theorem9(w io.Writer) error {
	t := exptab.New("Theorem 9: slowdown bound 2^(n-1)·n/N^(1/(n-1)) = N^(n/log²N)",
		"n", "N=n!", "slowdown-bound", "exponent log_N", "n/log2(N)^2")
	for n := 4; n <= 12; n++ {
		s, e := atallah.Theorem9Slowdown(n)
		l := atallah.Log2Factorial(n)
		t.Add(n, perm.Factorial(n), s, e, float64(n)/(l*l))
		if e <= 0 || e >= 1 {
			return fmt.Errorf("exponent out of range at n=%d", n)
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nthe exponent shrinks with n: uniform-mesh algorithms do NOT transfer efficiently (Section 5)")
	return nil
}

// Sorting compares sorting costs: snake sort on D_n vs the same sort
// on S_n through the embedding (≤3× routes), plus shearsort on the
// d=2 factorization.
func Sorting(w io.Writer) error {
	t := exptab.New("Sorting N = n! keys (uniform workload)",
		"n", "N", "algorithm", "machine", "unit-routes", "sorted", "star/mesh ratio")
	for _, n := range []int{3, 4, 5} {
		dn := mesh.D(n)
		N := dn.Order()
		keys := workload.Keys(workload.Uniform, N, int64(n))

		mm := meshsim.New(dn)
		mm.AddReg("K")
		mm.Set("K", func(pe int) int64 { return keys[pe] })
		rm := sorting.SnakeSortMesh(mm, "K")

		sm := starsim.New(n)
		sm.AddReg("K")
		meshID := make([]int, sm.Size())
		for pe := range meshID {
			meshID[pe] = core.UnmapID(n, pe)
		}
		sm.Set("K", func(pe int) int64 { return keys[meshID[pe]] })
		rs := sorting.SnakeSortStar(sm, "K", meshID)

		ratio := float64(rs.UnitRoutes) / float64(rm.UnitRoutes)
		t.Add(n, N, "snake odd-even", "mesh D_n", rm.UnitRoutes, rm.Sorted, "")
		t.Add(n, N, "snake odd-even", "star S_n", rs.UnitRoutes, rs.Sorted, fmt.Sprintf("%.2f", ratio))
		if !rm.Sorted || !rs.Sorted || ratio > 3.0001 {
			return fmt.Errorf("sorting transfer violated at n=%d (ratio %.2f)", n, ratio)
		}

		// The same sort on a SIMD-A star machine: §4's extra O(n)
		// factor, measured.
		smA := starsim.New(n)
		smA.AddReg("K")
		smA.Set("K", func(pe int) int64 { return keys[meshID[pe]] })
		ra := sorting.SnakeSortStarModelA(smA, "K", meshID)
		ratioA := float64(ra.UnitRoutes) / float64(rm.UnitRoutes)
		t.Add(n, N, "snake odd-even", "star S_n (SIMD-A)", ra.UnitRoutes, ra.Sorted, fmt.Sprintf("%.2f", ratioA))
		if !ra.Sorted || ra.UnitRoutes > n*rs.UnitRoutes {
			return fmt.Errorf("model-A sorting out of bounds at n=%d", n)
		}

		// Shearsort on the d=2 grouped factorization (R unit route =
		// 1 D_n route = <=3 star routes).
		f := atallah.Factorize(n, 2)
		r := f.RectMesh()
		rmach := meshsim.New(r)
		rmach.AddReg("K")
		rmach.Set("K", func(pe int) int64 { return keys[pe%N] })
		rr := sorting.ShearSort2D(rmach, "K")
		t.Add(n, N, "shearsort d=2", fmt.Sprintf("mesh %s", sidesString(r)), rr.UnitRoutes, rr.Sorted, "")
		t.Add(n, N, "shearsort d=2", "star (est. x3)", 3*rr.UnitRoutes, rr.Sorted, "3.00")

		// Bitonic sort on the smallest hypercube holding N keys —
		// the intro's fast-sorting baseline ([RANK88], [NASS79]).
		// Note it needs a power-of-two machine: 2^d >= n! wastes up
		// to half the PEs, which is exactly the §5 point about
		// divide-and-conquer sorters on non-power-of-two meshes.
		d := cubesim.MinDimFor(int64(N))
		cm := cubesim.New(d)
		cm.AddReg("K")
		maxKey := int64(0)
		for _, k := range keys {
			if k > maxKey {
				maxKey = k
			}
		}
		cm.Set("K", func(pe int) int64 {
			if pe < N {
				return keys[pe]
			}
			return maxKey + 1 // padding sentinels sort to the top
		})
		br := cm.BitonicSort("K")
		sortedCube := true
		for pe := 1; pe < cm.Size(); pe++ {
			if cm.Reg("K")[pe] < cm.Reg("K")[pe-1] {
				sortedCube = false
			}
		}
		t.Add(n, N, "bitonic", fmt.Sprintf("hypercube Q%d (%d PEs)", d, cm.Size()), br, sortedCube, "")
		if !sortedCube {
			return fmt.Errorf("bitonic failed at n=%d", n)
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nTheorem 6: every mesh algorithm transfers to the star at a route factor <= 3.")
	fmt.Fprintln(w, "the hypercube's O(log^2 N)-route bitonic sort is far cheaper but demands 2^d PEs;")
	fmt.Fprintln(w, "n! is never a power of two (n >= 3), the mismatch the paper's Section 5 discusses")
	return nil
}

// Appendix sweeps the sorting-cost model T(d) = d·2^d·N^(2/d) and
// reports the factorizations with their l_1/l_d ratios.
func Appendix(w io.Writer) error {
	t := exptab.New("Appendix: factorizations of the 2x3x...xn mesh",
		"n", "d", "sides l_1..l_d", "l1/ld", "bound nd")
	for _, n := range []int{6, 8, 10} {
		for d := 1; d <= 4; d++ {
			f := atallah.Factorize(n, d)
			t.Add(n, d, lString(f), f.Ratio(), f.RatioBound())
		}
	}
	t.Fprint(w)

	t2 := exptab.New("\nSorting-cost model T(d) = d·2^d·N^(2/d)",
		"n", "N", "T(1)", "T(2)", "T(4)", "T(6)", "T(8)", "optimal d", "predicted sqrt(2 lg N)")
	for _, n := range []int{6, 8, 10, 12} {
		N := float64(perm.Factorial(n))
		dStar, _ := atallah.OptimalSortDimension(N, 30)
		t2.Add(n, perm.Factorial(n),
			atallah.SortCostModel(N, 1), atallah.SortCostModel(N, 2),
			atallah.SortCostModel(N, 4), atallah.SortCostModel(N, 6),
			atallah.SortCostModel(N, 8),
			dStar, atallah.PredictedOptimalD(N))
	}
	t2.Fprint(w)
	fmt.Fprintln(w, "\nthe optimal simulation dimension is Θ(sqrt(log N)), as derived in the appendix")
	return nil
}

func lString(f atallah.Factorization) string {
	s := ""
	for i, l := range f.L {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(l)
	}
	return s
}

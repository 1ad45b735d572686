package atallah

import (
	"math"
	"testing"

	"starmesh/internal/mesh"
	"starmesh/internal/perm"
)

func TestFactorizeProductIsFactorial(t *testing.T) {
	for n := 2; n <= 12; n++ {
		for d := 1; d <= n-1; d++ {
			f := Factorize(n, d)
			if f.Product() != perm.Factorial(n) {
				t.Fatalf("n=%d d=%d: product %d != %d!", n, d, f.Product(), n)
			}
			if len(f.L) != d {
				t.Fatalf("n=%d d=%d: %d groups", n, d, len(f.L))
			}
		}
	}
}

func TestFactorizeMatchesAppendixFormula(t *testing.T) {
	// l_1 = n(n-d)(n-2d)…, l_2 = (n-1)(n-1-d)…, etc.
	f := Factorize(8, 3)
	// Group 1: 8,5,2 → 80; group 2: 7,4 → 28; group 3: 6,3 → 18.
	want := []int64{80, 28, 18}
	for t2, w := range want {
		if f.L[t2] != w {
			t.Fatalf("L = %v, want %v", f.L, want)
		}
	}
	if f.Product() != perm.Factorial(8) {
		t.Fatalf("product wrong")
	}
}

func TestFactorizeD1IsLinear(t *testing.T) {
	f := Factorize(5, 1)
	if len(f.L) != 1 || f.L[0] != 120 {
		t.Fatalf("d=1 should give the full linear order: %v", f.L)
	}
}

func TestFactorizeDMax(t *testing.T) {
	// d = n-1: every group is a single size; R = D_n itself.
	f := Factorize(5, 4)
	want := []int64{5, 4, 3, 2}
	for i, w := range want {
		if f.L[i] != w {
			t.Fatalf("L = %v", f.L)
		}
	}
}

func TestRatioBound(t *testing.T) {
	// Appendix: l_1/l_d ≤ n·d.
	for n := 3; n <= 12; n++ {
		for d := 1; d <= n-1; d++ {
			f := Factorize(n, d)
			if f.Ratio() > f.RatioBound()+1e-9 {
				t.Fatalf("n=%d d=%d: ratio %.2f > bound %.2f", n, d, f.Ratio(), f.RatioBound())
			}
		}
	}
}

func TestFactorizePanics(t *testing.T) {
	for _, c := range [][2]int{{1, 1}, {4, 0}, {4, 4}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Factorize(%d,%d) did not panic", c[0], c[1])
				}
			}()
			Factorize(c[0], c[1])
		}()
	}
}

func TestGroupedBijective(t *testing.T) {
	for _, c := range [][2]int{{4, 2}, {5, 2}, {5, 3}, {6, 2}, {6, 3}} {
		g := NewGrouped(Factorize(c[0], c[1]))
		if g.R.Order() != g.Dn.Order() {
			t.Fatalf("n=%d d=%d: order mismatch", c[0], c[1])
		}
		seen := make([]bool, g.R.Order())
		for id := 0; id < g.Dn.Order(); id++ {
			r := g.ToR(id)
			if seen[r] {
				t.Fatalf("n=%d d=%d: ToR not injective", c[0], c[1])
			}
			seen[r] = true
			if g.ToDn(r) != id {
				t.Fatalf("n=%d d=%d: roundtrip failed at %d", c[0], c[1], id)
			}
		}
	}
}

func TestGroupedStepCostIsOne(t *testing.T) {
	// The appendix claim: every ±1 move in a grouped dimension is a
	// single physical D_n step (dilation 1 via snake encoding): the
	// D_n Manhattan distance the move realizes is 1 wherever the move
	// stays inside R.
	for _, c := range [][2]int{{4, 2}, {5, 2}, {5, 3}, {6, 2}} {
		g := NewGrouped(Factorize(c[0], c[1]))
		for rID := 0; rID < g.R.Order(); rID++ {
			for t2 := 0; t2 < g.F.D; t2++ {
				for _, dir := range []int{+1, -1} {
					to := g.R.Step(rID, t2, dir)
					if to == -1 {
						continue
					}
					if cost := g.Dn.Distance(g.ToDn(rID), g.ToDn(to)); cost != 1 {
						t.Fatalf("n=%d d=%d r=%d dim=%d dir=%d: step cost %d",
							c[0], c[1], rID, t2, dir, cost)
					}
				}
			}
		}
	}
}

func TestUniformGuestShape(t *testing.T) {
	host := mesh.New(6, 4) // 24 nodes, d=2 → side 5
	u := UniformGuest(host)
	if u.Dims() != 2 || u.Size(0) != 5 || u.Size(1) != 5 {
		t.Fatalf("guest shape %v", u.Sizes())
	}
}

func TestSimulationAssignTotal(t *testing.T) {
	host := mesh.New(8, 3)
	s := NewSimulation(UniformGuest(host), host)
	for u := 0; u < s.U.Order(); u++ {
		r := s.Assign(u)
		if r < 0 || r >= host.Order() {
			t.Fatalf("assignment out of range")
		}
	}
}

func TestSimulationMetricsUniformHost(t *testing.T) {
	// Host already uniform: load 1-ish, dilation ≤ 1, slowdown tiny.
	host := mesh.New(5, 5)
	s := NewSimulation(mesh.New(5, 5), host)
	m := s.Measure()
	if m.MaxLoad != 1 || m.Dilation != 1 || m.UsedHosts != 25 {
		t.Fatalf("uniform-on-uniform metrics: %+v", m)
	}
}

func TestSimulationLopsidedHost(t *testing.T) {
	// Very lopsided host: dilation must grow along the long
	// dimension roughly like l_max/side, within the Theorem 8 bound.
	host := mesh.New(32, 2) // N=64, d=2, side=8
	s := NewSimulation(UniformGuest(host), host)
	m := s.Measure()
	if m.Dilation < 2 {
		t.Fatalf("expected stretched dilation, got %+v", m)
	}
	if float64(m.Dilation) > m.Theorem8 {
		t.Fatalf("dilation %d exceeds Theorem-8 bound %.2f", m.Dilation, m.Theorem8)
	}
	if m.MaxLoad < 2 {
		t.Fatalf("expected contraction load ≥ 2 on short dimension, got %+v", m)
	}
}

func TestSimulationDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewSimulation(mesh.New(4), mesh.New(2, 2))
}

func TestTheorem8Bound(t *testing.T) {
	// For a uniform mesh, bound = side·2d/side = 2d.
	if got := Theorem8Bound(mesh.New(5, 5)); math.Abs(got-4) > 1e-9 {
		t.Fatalf("bound = %v, want 4", got)
	}
}

func TestTheorem9SlowdownGrowth(t *testing.T) {
	// The bound grows like 2^n and its N-exponent shrinks like
	// n/log²N (→ 0 as n grows).
	s6, e6 := Theorem9Slowdown(6)
	s8, e8 := Theorem9Slowdown(8)
	if s8 <= s6 {
		t.Fatalf("slowdown must grow with n: %v vs %v", s6, s8)
	}
	if e8 >= e6 {
		t.Fatalf("exponent must shrink with n: %v vs %v", e6, e8)
	}
	if e6 <= 0 || e6 >= 1 {
		t.Fatalf("exponent out of (0,1): %v", e6)
	}
}

func TestSortCostModelConvex(t *testing.T) {
	// T(1) huge (N²), T large-d huge (2^d), minimum in between.
	N := float64(perm.Factorial(10))
	d1 := SortCostModel(N, 1)
	dStar, tStar := OptimalSortDimension(N, 30)
	dBig := SortCostModel(N, 30)
	if tStar >= d1 || tStar >= dBig {
		t.Fatalf("model not minimized in interior: d*=%d", dStar)
	}
	if dStar < 2 || dStar > 15 {
		t.Fatalf("optimal d = %d implausible", dStar)
	}
	// Near the predicted √(2 log N).
	pred := PredictedOptimalD(N)
	if math.Abs(float64(dStar)-pred) > 3 {
		t.Fatalf("optimal d %d far from predicted %.1f", dStar, pred)
	}
}

func TestLog2Factorial(t *testing.T) {
	if math.Abs(Log2Factorial(5)-math.Log2(120)) > 1e-9 {
		t.Fatalf("Log2Factorial wrong")
	}
}

func TestFactorizationString(t *testing.T) {
	f := Factorize(4, 2)
	if f.String() != "4! = 8 * 3" {
		t.Fatalf("String = %q", f.String())
	}
}

func BenchmarkGroupedToR(b *testing.B) {
	g := NewGrouped(Factorize(8, 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.ToR(i % g.Dn.Order())
	}
}

package atallah

import (
	"fmt"
	"math"

	"starmesh/internal/mesh"
)

// Simulation measures the block-scaling simulation of a uniform
// d-dimensional mesh U on a rectangular d-dimensional mesh R with
// (approximately) the same number of processors, the concrete
// construction standing in for Atallah's theorem ([ATAL88]): U node
// (u_1,…,u_d) is assigned to R node (⌊u_1·l_1/L⌋,…,⌊u_d·l_d/L⌋).
//
// Substitution note: the paper only cites Atallah's
// slowdown O((max_i l_i)/N^(1/d)) (refined by Theorem 8 with a 2d
// factor); we build the natural proportional block mapping and
// measure its load (compute slowdown) and dilation (communication
// slowdown), then compare with the analytic bound. The shape — the
// slowdown is governed by max_i l_i / N^(1/d) — is preserved.
type Simulation struct {
	U *mesh.Mesh
	R *mesh.Mesh
}

// NewSimulation pairs a uniform guest with a rectangular host of the
// same dimensionality.
func NewSimulation(u, r *mesh.Mesh) *Simulation {
	if u.Dims() != r.Dims() {
		panic("atallah: dimensionality mismatch")
	}
	return &Simulation{U: u, R: r}
}

// UniformGuest builds the d-dimensional uniform mesh with side
// round(N^(1/d)) for N = |host|.
func UniformGuest(host *mesh.Mesh) *mesh.Mesh {
	d := host.Dims()
	side := int(math.Round(math.Pow(float64(host.Order()), 1/float64(d))))
	if side < 2 {
		side = 2
	}
	sizes := make([]int, d)
	for j := range sizes {
		sizes[j] = side
	}
	return mesh.New(sizes...)
}

// Assign returns the R node simulating the given U node.
func (s *Simulation) Assign(uID int) int {
	d := s.U.Dims()
	coords := make([]int, d)
	for j := 0; j < d; j++ {
		u := s.U.Coord(uID, j)
		l := s.R.Size(j)
		L := s.U.Size(j)
		c := u * l / L
		if c >= l {
			c = l - 1
		}
		coords[j] = c
	}
	return s.R.ID(coords)
}

// Metrics reports the measured cost of one guest step.
type Metrics struct {
	MaxLoad    int     // most guest nodes on one host node
	AvgLoad    float64 // |U| / number of used host nodes
	Dilation   int     // max host distance between images of U-neighbors
	Slowdown   int     // MaxLoad + Dilation: host steps per guest step
	Theorem8   float64 // analytic bound (max_i l_i)·2d/N^(1/d)
	UsedHosts  int
	GuestOrder int
	HostOrder  int
}

// Measure walks all guest nodes and edges.
func (s *Simulation) Measure() Metrics {
	m := Metrics{GuestOrder: s.U.Order(), HostOrder: s.R.Order()}
	load := make(map[int]int)
	for u := 0; u < s.U.Order(); u++ {
		load[s.Assign(u)]++
	}
	for _, c := range load {
		if c > m.MaxLoad {
			m.MaxLoad = c
		}
	}
	m.UsedHosts = len(load)
	m.AvgLoad = float64(s.U.Order()) / float64(len(load))
	var buf []int
	for u := 0; u < s.U.Order(); u++ {
		ru := s.Assign(u)
		buf = s.U.AppendNeighbors(buf[:0], u)
		for _, v := range buf {
			if d := s.R.Distance(ru, s.Assign(v)); d > m.Dilation {
				m.Dilation = d
			}
		}
	}
	m.Slowdown = m.MaxLoad + m.Dilation
	m.Theorem8 = Theorem8Bound(s.R)
	return m
}

// Theorem8Bound returns (max_i l_i) · 2d / N^(1/d) for the host mesh.
func Theorem8Bound(r *mesh.Mesh) float64 {
	maxL := 0
	for j := 0; j < r.Dims(); j++ {
		if r.Size(j) > maxL {
			maxL = r.Size(j)
		}
	}
	d := float64(r.Dims())
	return float64(maxL) * 2 * d / math.Pow(float64(r.Order()), 1/d)
}

// Log2Factorial returns log2(n!) = log2 N.
func Log2Factorial(n int) float64 {
	s := 0.0
	for i := 2; i <= n; i++ {
		s += math.Log2(float64(i))
	}
	return s
}

// Theorem9Slowdown returns the paper's weak upper bound on simulating
// one step of the uniform (n-1)-dimensional mesh of N = n! nodes on
// D_n (and hence on S_n): O(2^(n-1)·n/N^(1/(n-1))) = O(2^n), which
// the paper rewrites as O(N^(n/log²N)). The second return value is
// the measured exponent log_N(slowdown).
func Theorem9Slowdown(n int) (slowdown float64, exponent float64) {
	slowdown = math.Pow(2, float64(n-1)) * float64(n) /
		math.Pow(factorialF(n), 1/float64(n-1))
	exponent = math.Log2(slowdown) / Log2Factorial(n)
	return slowdown, exponent
}

func factorialF(n int) float64 {
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
	}
	return f
}

// SortCostModel returns the §5/appendix cost model for sorting N
// keys by simulating a d-dimensional mesh sort (an O(N^(1/d))-step
// algorithm) on the star graph: T(d) = d · 2^d · N^(2/d).
func SortCostModel(N float64, d int) float64 {
	return float64(d) * math.Pow(2, float64(d)) * math.Pow(N, 2/float64(d))
}

// OptimalSortDimension minimizes SortCostModel over 1 ≤ d ≤ maxD and
// returns (d*, T(d*)). The appendix derives d* = Θ(√log N).
func OptimalSortDimension(N float64, maxD int) (int, float64) {
	bestD, bestT := 1, math.Inf(1)
	for d := 1; d <= maxD; d++ {
		if t := SortCostModel(N, d); t < bestT {
			bestD, bestT = d, t
		}
	}
	return bestD, bestT
}

// PredictedOptimalD returns the closed-form minimizer of the cost
// model: setting d/dd [ln d + d·ln2 + (2/d)·ln N] = 0 and dropping
// the 1/d term gives d* ≈ √(2·log₂N) — the appendix's Θ(√log N).
func PredictedOptimalD(N float64) float64 {
	return math.Sqrt(2 * math.Log2(N))
}

// String renders a factorization like "24 = 6*4 (groups [4 2][3])".
func (f Factorization) String() string {
	s := fmt.Sprintf("%d! =", f.N)
	for t, l := range f.L {
		if t > 0 {
			s += " *"
		}
		s += fmt.Sprintf(" %d", l)
	}
	return s
}

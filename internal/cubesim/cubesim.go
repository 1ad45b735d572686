// Package cubesim runs SIMD programs on a hypercube-connected
// machine and implements Batcher's bitonic sort, the fast hypercube
// sorting algorithm the paper's introduction credits to [RANK88] /
// [NASS79]. It serves as the baseline the star graph is measured
// against in the §5 sorting discussion: bitonic sort needs O(log²N)
// unit routes but requires N to be a power of two — which n! never
// is (for n ≥ 3) — while the star's embedded-mesh sorts work at any
// n! but cost more routes.
package cubesim

import (
	"fmt"

	"starmesh/internal/simd"
)

// Topo adapts Q_d to simd.Topology: port b flips address bit b.
type Topo struct {
	D int
}

// Size implements simd.Topology.
func (t Topo) Size() int { return 1 << t.D }

// Ports implements simd.Topology.
func (t Topo) Ports() int { return t.D }

// Neighbor implements simd.Topology.
func (t Topo) Neighbor(pe, port int) int { return pe ^ (1 << port) }

// PlanKey implements simd.PlanKeyer: hypercubes of equal dimension
// share compiled route plans.
func (t Topo) PlanKey() string { return fmt.Sprintf("cube:%d", t.D) }

// Machine is a hypercube-connected SIMD computer.
type Machine struct {
	*simd.Machine
	D int
	// xPlans memoizes the compiled bit-exchange plans (shared across
	// machines of the same dimension via simd.SharedPlans).
	xPlans map[xKey]*simd.Plan
}

// xKey identifies a bit-exchange schedule.
type xKey struct {
	src, dst string
	bit      int
}

// bitonicTmp is the bitonic-sort scratch register, declared at
// machine construction so the sort's hot loop never pays the
// EnsureReg lookup.
const bitonicTmp = "__bitonic_tmp"

// New builds the machine for Q_d. Options select the simd execution
// engine (default sequential).
func New(d int, opts ...simd.Option) *Machine {
	if d < 0 || d > 24 {
		panic(fmt.Sprintf("cubesim: unsupported dimension %d", d))
	}
	m := &Machine{Machine: simd.New(Topo{D: d}, opts...), D: d, xPlans: make(map[xKey]*simd.Plan)}
	m.AddReg(bitonicTmp)
	return m
}

// ExchangeBit delivers every PE its bit-b partner's src value into
// dst — a single SIMD-A unit route, since the bit-b pairing is an
// involution. With plans enabled (the default) the route is compiled
// once per (src, dst, b) and replayed; bitonic sort revisits each
// bit many times.
func (m *Machine) ExchangeBit(src, dst string, b int) {
	simd.RunMemoized(m.Machine, simd.SharedPlans, m.xPlans,
		xKey{src: src, dst: dst, bit: b},
		func() string { return fmt.Sprintf("xbit:%s:%s:%d", src, dst, b) },
		func() { m.RouteA(src, dst, b, nil) })
}

// BitonicSort sorts register key ascending by PE address using
// Batcher's bitonic network: (d(d+1))/2 compare-exchange stages, one
// unit route each.
func (m *Machine) BitonicSort(key string) int {
	const tmp = bitonicTmp
	before := m.Stats().UnitRoutes
	n := m.Size()
	kk, tt := m.Reg(key), m.Reg(tmp)
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			bit := trailingBit(j)
			m.ExchangeBit(key, tmp, bit)
			m.Apply(func(pe int) {
				up := pe&k == 0 // ascending block?
				lower := pe&j == 0
				keepMin := lower == up
				if keepMin {
					if tt[pe] < kk[pe] {
						kk[pe] = tt[pe]
					}
				} else {
					if tt[pe] > kk[pe] {
						kk[pe] = tt[pe]
					}
				}
			})
		}
	}
	return m.Stats().UnitRoutes - before
}

func trailingBit(j int) int {
	b := 0
	for j > 1 {
		j >>= 1
		b++
	}
	return b
}

// TheoreticalRoutes returns d(d+1)/2, the exact unit-route count of
// bitonic sort on Q_d.
func TheoreticalRoutes(d int) int { return d * (d + 1) / 2 }

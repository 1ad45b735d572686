// Package atallah implements §4 and the appendix of the paper: the
// simulation of uniform meshes on rectangular meshes via Atallah's
// theorem ([ATAL88], Theorems 7 and 8), the resulting weak upper
// bound for uniform meshes on the star graph (Theorem 9), and the
// appendix's factorization of the 2×3×…×n mesh into a d-dimensional
// rectangular mesh with an O(1)-dilation (snake) realization,
// together with the sorting-cost model whose optimal simulation
// dimension is Θ(√log N).
package atallah

import (
	"fmt"
	"math"

	"starmesh/internal/mesh"
)

// Factorization groups the dimension sizes {2,…,n} of D_n into d
// groups, following the appendix: group t (1-indexed) takes the
// sizes n-t+1, n-t+1-d, n-t+1-2d, … while they remain ≥ 2.
type Factorization struct {
	N int // star parameter; |D_n| = n!
	D int // number of groups
	// Groups[t] lists the sizes in group t, descending.
	Groups [][]int
	// L[t] = ∏ Groups[t], the side of grouped dimension t.
	L []int64
}

// Factorize computes the appendix grouping. Requires 1 ≤ d ≤ n-1.
func Factorize(n, d int) Factorization {
	if n < 2 || d < 1 || d > n-1 {
		panic(fmt.Sprintf("atallah: invalid factorization n=%d d=%d", n, d))
	}
	f := Factorization{N: n, D: d, Groups: make([][]int, d), L: make([]int64, d)}
	for t := 0; t < d; t++ {
		f.L[t] = 1
		for s := n - t; s >= 2; s -= d {
			f.Groups[t] = append(f.Groups[t], s)
			f.L[t] *= int64(s)
		}
	}
	return f
}

// Product returns ∏ L[t]; always equals n!.
func (f Factorization) Product() int64 {
	p := int64(1)
	for _, l := range f.L {
		p *= l
	}
	return p
}

// Ratio returns l_max / l_min as a float; the appendix bounds
// l_1/l_d by n(1 + n mod d) ≤ n·d.
func (f Factorization) Ratio() float64 {
	lo, hi := f.L[0], f.L[0]
	for _, l := range f.L {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	return float64(hi) / float64(lo)
}

// RatioBound returns the appendix bound n·d on Ratio.
func (f Factorization) RatioBound() float64 { return float64(f.N * f.D) }

// RectMesh returns the d-dimensional rectangular mesh with sides
// L[0..d-1]. Panics if any side exceeds the int range.
func (f Factorization) RectMesh() *mesh.Mesh {
	sizes := make([]int, f.D)
	for t, l := range f.L {
		if l > int64(math.MaxInt32) {
			panic("atallah: grouped dimension too large to materialize")
		}
		sizes[t] = int(l)
	}
	return mesh.New(sizes...)
}

// Grouped realizes the rectangular mesh R = L[0]×…×L[d-1] on the
// physical mesh D_n: grouped coordinate t is the snake index of the
// group's sub-coordinates, so a ±1 move in any grouped dimension is
// exactly one D_n unit step (the appendix's O(1) simulation).
type Grouped struct {
	F  Factorization
	Dn *mesh.Mesh // the physical 2×3×…×n mesh
	R  *mesh.Mesh // the logical rectangular mesh
	// dims[t] lists the D_n dimension indices (0-based) in group t,
	// ordered to match Groups[t] (descending size).
	dims [][]int
	// subs[t] is the sub-mesh over group t's sizes, used for snake
	// encoding. Sub-mesh dimension order matches dims[t] reversed so
	// that the smallest size varies fastest.
	subs []*mesh.Mesh
}

// NewGrouped builds the realization.
func NewGrouped(f Factorization) *Grouped {
	g := &Grouped{F: f, Dn: mesh.D(f.N), R: f.RectMesh()}
	g.dims = make([][]int, f.D)
	g.subs = make([]*mesh.Mesh, f.D)
	for t := 0; t < f.D; t++ {
		// Group t holds sizes n-t, n-t-d, …; size s is D_n dimension
		// index s-2 (dimension k has size k+1, 0-based index k-1).
		var dimIdx []int
		var sizes []int
		for _, s := range f.Groups[t] {
			dimIdx = append(dimIdx, s-2)
			sizes = append(sizes, s)
		}
		// Reverse so the smallest size is dimension 0 of the
		// sub-mesh (fastest-varying in the snake).
		for l, r := 0, len(dimIdx)-1; l < r; l, r = l+1, r-1 {
			dimIdx[l], dimIdx[r] = dimIdx[r], dimIdx[l]
			sizes[l], sizes[r] = sizes[r], sizes[l]
		}
		g.dims[t] = dimIdx
		g.subs[t] = mesh.New(sizes...)
	}
	return g
}

// ToR maps a D_n node id to its logical R node id.
func (g *Grouped) ToR(dnID int) int {
	coords := make([]int, g.F.D)
	for t := 0; t < g.F.D; t++ {
		sub := make([]int, len(g.dims[t]))
		for i, j := range g.dims[t] {
			sub[i] = g.Dn.Coord(dnID, j)
		}
		coords[t] = g.subs[t].SnakeIndex(sub)
	}
	return g.R.ID(coords)
}

// ToDn maps a logical R node id back to the D_n node id.
func (g *Grouped) ToDn(rID int) int {
	coords := make([]int, g.Dn.Dims())
	for t := 0; t < g.F.D; t++ {
		v := g.R.Coord(rID, t)
		sub := g.subs[t].SnakeCoords(nil, v)
		for i, j := range g.dims[t] {
			coords[j] = sub[i]
		}
	}
	return g.Dn.ID(coords)
}

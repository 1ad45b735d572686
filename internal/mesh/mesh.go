// Package mesh implements rectangular multi-dimensional meshes
// (the paper's D(l_m, …, l_1) arrays, §2 item 3): coordinates, dense
// node ids, neighbor enumeration, unit-route destinations, and snake
// (boustrophedon) linearizations used to combine dimensions with
// dilation 1 (appendix).
//
// Dimension j (0-based) has size Sizes[j] and is the paper's
// dimension j+1; dimension 0 varies fastest in the node id. The mesh
// D_n of the paper — size 2×3×…×n — is produced by D(n).
package mesh

import "fmt"

// Mesh is an l_1 × l_2 × … × l_m rectangular mesh (no wraparound).
type Mesh struct {
	sizes   []int
	strides []int
	order   int
}

// New returns a mesh with the given dimension sizes (each ≥ 1).
func New(sizes ...int) *Mesh {
	if len(sizes) == 0 {
		panic("mesh: no dimensions")
	}
	m := &Mesh{sizes: append([]int(nil), sizes...)}
	m.strides = make([]int, len(sizes))
	m.order = 1
	for j, l := range sizes {
		if l < 1 {
			panic(fmt.Sprintf("mesh: dimension %d has size %d", j, l))
		}
		m.strides[j] = m.order
		m.order *= l
	}
	return m
}

// D returns the paper's mesh D_n: the (n-1)-dimensional mesh of size
// 2×3×4×…×n, whose node count equals |S_n| = n!.
func D(n int) *Mesh {
	if n < 2 {
		panic("mesh: D(n) needs n ≥ 2")
	}
	sizes := make([]int, n-1)
	for k := 1; k <= n-1; k++ {
		sizes[k-1] = k + 1 // dimension k of the paper has size k+1
	}
	return New(sizes...)
}

// Dims returns the number of dimensions.
func (m *Mesh) Dims() int { return len(m.sizes) }

// Size returns the length of dimension j.
func (m *Mesh) Size(j int) int { return m.sizes[j] }

// Sizes returns a copy of all dimension sizes.
func (m *Mesh) Sizes() []int { return append([]int(nil), m.sizes...) }

// Order returns the total number of nodes.
func (m *Mesh) Order() int { return m.order }

// ID returns the dense node id of the given coordinates
// (dimension 0 fastest).
func (m *Mesh) ID(coords []int) int {
	if len(coords) != len(m.sizes) {
		panic("mesh: coordinate arity mismatch")
	}
	id := 0
	for j, c := range coords {
		if c < 0 || c >= m.sizes[j] {
			panic(fmt.Sprintf("mesh: coordinate %d out of range in dim %d", c, j))
		}
		id += c * m.strides[j]
	}
	return id
}

// Coords decodes a node id into coordinates, appending to buf.
func (m *Mesh) Coords(buf []int, id int) []int {
	if id < 0 || id >= m.order {
		panic(fmt.Sprintf("mesh: id %d out of range", id))
	}
	for j := range m.sizes {
		buf = append(buf, id%m.sizes[j])
		id /= m.sizes[j]
	}
	return buf
}

// Coord returns coordinate j of the node id without allocating.
func (m *Mesh) Coord(id, j int) int {
	return (id / m.strides[j]) % m.sizes[j]
}

// Step returns the id of the node one step in direction dir (+1/-1)
// along dimension j from id, or -1 if that neighbor does not exist.
func (m *Mesh) Step(id, j, dir int) int {
	c := m.Coord(id, j)
	c2 := c + dir
	if c2 < 0 || c2 >= m.sizes[j] {
		return -1
	}
	return id + dir*m.strides[j]
}

// AppendNeighbors implements graphalg.Graph.
func (m *Mesh) AppendNeighbors(buf []int, v int) []int {
	for j := range m.sizes {
		if w := m.Step(v, j, +1); w != -1 {
			buf = append(buf, w)
		}
		if w := m.Step(v, j, -1); w != -1 {
			buf = append(buf, w)
		}
	}
	return buf
}

// MaxDegree returns the largest node degree: a node in the interior
// of every dimension has two neighbors per dimension of size ≥ 3,
// one per dimension of size 2 and zero per trivial dimension. For
// D_n this is 2n-3, the quantity in the paper's Lemma 1.
func (m *Mesh) MaxDegree() int {
	d := 0
	for _, l := range m.sizes {
		switch {
		case l >= 3:
			d += 2
		case l == 2:
			d++
		}
	}
	return d
}

// Distance returns the Manhattan distance between two nodes.
func (m *Mesh) Distance(a, b int) int {
	d := 0
	for j := range m.sizes {
		ca, cb := m.Coord(a, j), m.Coord(b, j)
		if ca > cb {
			d += ca - cb
		} else {
			d += cb - ca
		}
	}
	return d
}

// Diameter returns the mesh diameter Σ(l_j − 1).
func (m *Mesh) Diameter() int {
	d := 0
	for _, l := range m.sizes {
		d += l - 1
	}
	return d
}

// String renders the mesh shape, e.g. "2*3*4 mesh".
func (m *Mesh) String() string {
	s := ""
	for j, l := range m.sizes {
		if j > 0 {
			s += "*"
		}
		s += fmt.Sprint(l)
	}
	return s + " mesh"
}

// DPointString renders D_n coordinates in the paper's tuple order,
// e.g. "(3,0,1)" for d_3=3, d_2=0, d_1=1.
func DPointString(pt []int) string {
	s := "("
	for k := len(pt) - 1; k >= 0; k-- {
		s += fmt.Sprint(pt[k])
		if k > 0 {
			s += ","
		}
	}
	return s + ")"
}

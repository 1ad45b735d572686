// Package meshops implements SIMD collective operations on a mesh —
// dimension reductions, dimension broadcasts, snake-order scans and
// shifts — runnable both natively on a mesh machine and on a star
// machine through the paper's embedding. It makes §1's claim
// concrete: "most algorithms for the (n-1)-dimensional mesh … can be
// efficiently simulated on the star graph", at the Theorem-6 route
// factor of ≤ 3.
//
// The Stepper interface abstracts the single primitive every
// operation is built from: a masked unit route along one mesh
// dimension. On the mesh machine a masked step costs 1 unit route;
// on the star machine it costs ≤ 3 (Theorem 6).
package meshops

import (
	"starmesh/internal/mesh"
	"starmesh/internal/meshsim"
	"starmesh/internal/simd"
	"starmesh/internal/starsim"
)

// Stepper is a machine that can move data one masked step along a
// mesh dimension. Masks are predicates over *mesh* node ids
// (evaluated at the sender), regardless of how PEs are laid out.
type Stepper interface {
	// MaskedStep routes src one step along dimension dim (0-based)
	// in direction dir into dst for every selected sender.
	MaskedStep(src, dst string, dim, dir int, mask func(meshID int) bool)
	// Machine exposes the underlying SIMD machine (registers, stats).
	Machine() *simd.Machine
	// Mesh returns the logical mesh.
	Mesh() *mesh.Mesh
	// MeshOf maps a PE id to the mesh node it hosts.
	MeshOf(pe int) int
	// PEOf maps a mesh node to the PE hosting it.
	PEOf(meshID int) int
}

// meshStepper executes on the mesh machine itself (PE id = mesh id).
type meshStepper struct{ mm *meshsim.Machine }

// NewMeshStepper wraps a mesh machine.
func NewMeshStepper(mm *meshsim.Machine) Stepper { return meshStepper{mm: mm} }

func (s meshStepper) MaskedStep(src, dst string, dim, dir int, mask func(int) bool) {
	s.mm.RouteA(src, dst, meshsim.Port(dim, dir), mask)
}
func (s meshStepper) Machine() *simd.Machine { return s.mm.Machine }
func (s meshStepper) Mesh() *mesh.Mesh       { return s.mm.M }
func (s meshStepper) MeshOf(pe int) int      { return pe }
func (s meshStepper) PEOf(meshID int) int    { return meshID }

// starStepper executes on the star machine through the embedding.
type starStepper struct {
	sm     *starsim.Machine
	dn     *mesh.Mesh
	meshID []int // star PE -> mesh id (the machine's cached MeshIDs)
	peID   []int // mesh id -> star PE
}

// NewStarStepper wraps a star machine; the mesh is D_n and PE
// placement follows the paper's embedding.
func NewStarStepper(sm *starsim.Machine) Stepper {
	s := &starStepper{sm: sm, dn: mesh.D(sm.N), meshID: sm.MeshIDs()}
	s.peID = make([]int, sm.Size())
	for pe, m := range s.meshID {
		s.peID[m] = pe
	}
	return s
}

func (s *starStepper) MaskedStep(src, dst string, dim, dir int, mask func(int) bool) {
	s.sm.MaskedMeshUnitRoute(src, dst, dim+1, dir, func(pe int) bool {
		return mask(s.meshID[pe])
	})
}
func (s *starStepper) Machine() *simd.Machine { return s.sm.Machine }
func (s *starStepper) Mesh() *mesh.Mesh       { return s.dn }
func (s *starStepper) MeshOf(pe int) int      { return s.meshID[pe] }
func (s *starStepper) PEOf(meshID int) int    { return s.peID[meshID] }

// SnakePlan precomputes the snake order of a mesh: each node's snake
// index and the (dim, dir) of the step to its snake successor.
type SnakePlan struct {
	M     *mesh.Mesh
	Index []int // node id -> snake position
	IDAt  []int // snake position -> node id
	Dim   []int // node id -> dim of step to successor, -1 at the end
	Dir   []int
}

// NewSnakePlan builds the plan.
func NewSnakePlan(m *mesh.Mesh) *SnakePlan {
	p := &SnakePlan{
		M:     m,
		Index: make([]int, m.Order()),
		IDAt:  make([]int, m.Order()),
		Dim:   make([]int, m.Order()),
		Dir:   make([]int, m.Order()),
	}
	prev := -1
	for s := 0; s < m.Order(); s++ {
		id := m.SnakeIDAt(s)
		p.Index[id] = s
		p.IDAt[s] = id
		p.Dim[id] = -1
		if prev != -1 {
			for j := 0; j < m.Dims(); j++ {
				switch m.Coord(id, j) - m.Coord(prev, j) {
				case 1:
					p.Dim[prev], p.Dir[prev] = j, +1
				case -1:
					p.Dim[prev], p.Dir[prev] = j, -1
				}
			}
		}
		prev = id
	}
	return p
}

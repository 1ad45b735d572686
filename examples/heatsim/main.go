// Heat diffusion (Jacobi relaxation) on the mesh D_5, executed twice:
// natively on the mesh machine and on the star graph S_5 through the
// paper's embedding. This is the paper's motivating workload class —
// numerical analysis and image processing use nearest-neighbor mesh
// communication (§1) — and demonstrates Theorem 6 end to end: the
// star run produces bit-identical temperatures using at most 3× the
// unit routes.
//
// Temperatures are fixed-point (milli-degrees) int64 so both
// machines compute identical integer results.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"starmesh"
	"starmesh/internal/mesh"
)

const (
	n     = 5  // S_5 / D_5: 120 processors
	iters = 25 // Jacobi sweeps
)

// stepper abstracts "move register src one step along (k,dir) into
// dst" over the two machines.
type stepper interface {
	move(src, dst string, k, dir int)
	reg(name string) []int64
	addReg(name string)
	set(name string, fn func(pe int) int64)
	routes() int
}

type meshStepper struct{ m *starmesh.MeshMachine }

func (s meshStepper) move(src, dst string, k, dir int) { s.m.UnitRoute(src, dst, k-1, dir) }
func (s meshStepper) reg(name string) []int64          { return s.m.Reg(name) }
func (s meshStepper) addReg(name string)               { s.m.AddReg(name) }
func (s meshStepper) set(name string, fn func(pe int) int64) {
	s.m.Set(name, fn)
}
func (s meshStepper) routes() int { return s.m.Stats().UnitRoutes }

type starStepper struct{ m *starmesh.StarMachine }

func (s starStepper) move(src, dst string, k, dir int) {
	if _, c := s.m.MeshUnitRoute(src, dst, k, dir); c != 0 {
		log.Fatalf("unit-route conflicts: %d (Lemma 5 violated)", c)
	}
}
func (s starStepper) reg(name string) []int64 { return s.m.Reg(name) }
func (s starStepper) addReg(name string)      { s.m.AddReg(name) }
func (s starStepper) set(name string, fn func(pe int) int64) {
	s.m.Set(name, fn)
}
func (s starStepper) routes() int { return s.m.Stats().UnitRoutes }

// jacobi runs the relaxation. meshOf maps PE id to mesh node id
// (identity on the mesh machine, ConvertSD on the star machine).
func jacobi(s stepper, dn *mesh.Mesh, meshOf func(pe int) int) {
	s.addReg("T")   // temperature
	s.addReg("in")  // incoming neighbor value
	s.addReg("sum") // accumulator
	s.addReg("cnt") // neighbor count
	// Hot plate at the mesh origin corner, cold elsewhere.
	s.set("T", func(pe int) int64 {
		if meshOf(pe) == 0 {
			return 1_000_000 // 1000.000 degrees
		}
		return 0
	})
	for it := 0; it < iters; it++ {
		s.set("sum", func(pe int) int64 { return 0 })
		s.set("cnt", func(pe int) int64 { return 0 })
		for k := 1; k <= dn.Dims(); k++ {
			for _, dir := range []int{+1, -1} {
				s.move("T", "in", k, dir)
				// A PE received iff it has a neighbor at -dir.
				in, sum, cnt := s.reg("in"), s.reg("sum"), s.reg("cnt")
				for pe := range sum {
					if dn.Step(meshOf(pe), k-1, -dir) != -1 {
						sum[pe] += in[pe]
						cnt[pe]++
					}
				}
			}
		}
		// T := (T + sum) / (1 + cnt), keeping the hot corner pinned.
		tr, sum, cnt := s.reg("T"), s.reg("sum"), s.reg("cnt")
		for pe := range tr {
			if meshOf(pe) == 0 {
				continue // boundary condition: source stays hot
			}
			tr[pe] = (tr[pe] + sum[pe]) / (1 + cnt[pe])
		}
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's report to w.
func run(w io.Writer) error {
	dn := mesh.D(n)

	mm := starmesh.NewDMeshMachine(n)
	ms := meshStepper{m: mm}
	jacobi(ms, dn, func(pe int) int { return pe })

	sm := starmesh.NewStarMachine(n)
	meshID := sm.MeshIDs()
	ss := starStepper{m: sm}
	jacobi(ss, dn, func(pe int) int { return meshID[pe] })

	// The two runs must agree on every mesh node.
	diffs := 0
	for pe := 0; pe < sm.Size(); pe++ {
		if sm.Reg("T")[pe] != mm.Reg("T")[meshID[pe]] {
			diffs++
		}
	}
	fmt.Fprintf(w, "Jacobi heat diffusion on D_%d (%d nodes, %d sweeps)\n", n, dn.Order(), iters)
	fmt.Fprintf(w, "  mesh machine:  %6d unit routes\n", ms.routes())
	fmt.Fprintf(w, "  star machine:  %6d unit routes (x%.2f, Theorem 6 bound x3)\n",
		ss.routes(), float64(ss.routes())/float64(ms.routes()))
	fmt.Fprintf(w, "  temperature fields identical: %v\n", diffs == 0)
	if diffs != 0 {
		return fmt.Errorf("%d PEs disagree", diffs)
	}

	// Show the resulting gradient along the d_4 axis from the hot corner.
	fmt.Fprintln(w, "  temperature along +d4 from the hot corner (milli-degrees):")
	pt := []int{0, 0, 0, 0}
	for d4 := 0; d4 <= 4; d4++ {
		pt[3] = d4
		id := dn.ID(pt)
		fmt.Fprintf(w, "    d4=%d: %7d\n", d4, mm.Reg("T")[id])
	}
	return nil
}

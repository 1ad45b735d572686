package experiments

import (
	"fmt"
	"io"

	"starmesh/internal/atallah"
	"starmesh/internal/exptab"
	"starmesh/internal/mesh"
	"starmesh/internal/meshops"
	"starmesh/internal/meshsim"
	"starmesh/internal/starsim"
	"starmesh/internal/workload"
)

// EmbedRectExperiment measures the extension embedding: every
// appendix factorization R = l_1×…×l_d of n! embeds into S_n with
// expansion 1 and dilation 3 (grouped snake + Lemma-2 paths).
func EmbedRectExperiment(w io.Writer) error {
	t := exptab.New("Extension: d-dimensional rectangular meshes on S_n",
		"n", "d", "sides", "expansion", "dilation", "avg-dilation", "congestion")
	for _, c := range [][2]int{{4, 2}, {5, 2}, {5, 3}, {6, 2}, {6, 3}, {6, 4}} {
		e := atallah.EmbedRect(c[0], c[1])
		m := e.Measure()
		f := atallah.Factorize(c[0], c[1])
		t.Add(c[0], c[1], lString(f), m.Expansion, m.Dilation, m.AvgDilation, m.Congestion)
		if m.Dilation != 3 || m.Expansion != 1 {
			return fmt.Errorf("extension embedding broken at n=%d d=%d", c[0], c[1])
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nany appendix factorization embeds with the same dilation 3 as D_n itself,")
	fmt.Fprintln(w, "so star-graph programs may use any d-dimensional mesh view of the machine")
	return nil
}

// Collectives measures mesh-vs-star unit routes for the collective
// operations of package meshops (reduction, broadcast, scan, shift).
func Collectives(w io.Writer) error {
	t := exptab.New("Collectives on D_n vs on S_n through the embedding",
		"n", "operation", "mesh-routes", "star-routes", "ratio", "results-equal")
	type runner struct {
		name string
		run  func(s meshops.Stepper) int
	}
	runs := []runner{
		{"reduce(sum)", func(s meshops.Stepper) int { return meshops.ReduceAll(s, "K", meshops.Sum) }},
		{"reduce(max)", func(s meshops.Stepper) int { return meshops.ReduceAll(s, "K", meshops.Max) }},
		{"broadcast", func(s meshops.Stepper) int { return meshops.BroadcastAll(s, "K") }},
		{"scan(sum)", func(s meshops.Stepper) int { return meshops.ScanSnake(s, "K", meshops.Sum) }},
		{"shift-snake", func(s meshops.Stepper) int { return meshops.ShiftSnake(s, "K", 0) }},
	}
	for _, n := range []int{4, 5} {
		dn := mesh.D(n)
		vals := workload.Keys(workload.Uniform, dn.Order(), int64(n))
		for _, r := range runs {
			mm := meshsim.New(mesh.New(dn.Sizes()...))
			mm.AddReg("K")
			ms := meshops.NewMeshStepper(mm)
			load(ms, vals)
			meshRoutes := r.run(ms)

			sm := starsim.New(n)
			sm.AddReg("K")
			ss := meshops.NewStarStepper(sm)
			load(ss, vals)
			starRoutes := r.run(ss)

			equal := true
			for id := 0; id < dn.Order(); id++ {
				if get(ms, id) != get(ss, id) {
					equal = false
				}
			}
			ratio := float64(starRoutes) / float64(meshRoutes)
			t.Add(n, r.name, meshRoutes, starRoutes, fmt.Sprintf("%.2f", ratio), equal)
			if !equal || ratio > 3.0001 {
				return fmt.Errorf("collective %s broken at n=%d", r.name, n)
			}
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nevery collective transfers at the Theorem-6 factor <= 3 with identical results")
	return nil
}

func load(s meshops.Stepper, vals []int64) {
	k := s.Machine().Reg("K")
	for pe := range k {
		k[pe] = vals[s.MeshOf(pe)]
	}
}

func get(s meshops.Stepper, meshID int) int64 {
	return s.Machine().Reg("K")[s.PEOf(meshID)]
}

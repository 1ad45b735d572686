package experiments

import (
	"fmt"
	"io"

	"starmesh/internal/core"
	"starmesh/internal/exptab"
	"starmesh/internal/mesh"
	"starmesh/internal/meshsim"
	"starmesh/internal/sorting"
	"starmesh/internal/starsim"
	"starmesh/internal/workload"
)

// MultiDimShear tests the §5 remark that shearsort "does not seem
// that it can be easily extended to dimensions greater than 2": we
// run the naive d-dimensional generalization and track snake-order
// inversions per round.
func MultiDimShear(w io.Writer) error {
	t := exptab.New("Naive d-dimensional shearsort: inversions after each round",
		"mesh", "dims", "initial-inv", "per-round", "sorted", "rounds")
	shapes := [][]int{{8, 8}, {16, 16}, {3, 3, 3}, {4, 4, 4}, {2, 3, 4}, {2, 3, 4, 5}, {3, 3, 3, 3}}
	for _, sizes := range shapes {
		m := meshsim.New(mesh.New(sizes...))
		m.AddReg("K")
		keys := workload.Keys(workload.Uniform, m.M.Order(), 77)
		m.Set("K", func(pe int) int64 { return keys[pe] })
		initial := sorting.SnakeInversions(m.M, m.Reg("K"))
		hist := sorting.MultiDimShearRounds(m, "K", 12)
		s := ""
		for i, h := range hist {
			if i > 0 {
				s += " "
			}
			s += fmt.Sprint(h)
		}
		sorted := hist[len(hist)-1] == 0
		t.Add(m.M.String(), m.M.Dims(), initial, s, sorted, len(hist))
		if m.M.Dims() == 2 && !sorted {
			return fmt.Errorf("2-D shearsort failed on %v", sizes)
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\n2-D instances sort within the classical log(rows)+1 rounds; higher-dimensional")
	fmt.Fprintln(w, "instances keep reducing inversions but need more rounds and carry no proof —")
	fmt.Fprintln(w, "consistent with the paper's skepticism about extending shearsort past 2-D")
	return nil
}

// Utilization profiles generator usage on the star machine during a
// full snake sort — which links carry the traffic of mesh
// algorithms run through the embedding.
func Utilization(w io.Writer) error {
	t := exptab.New("Generator (link) utilization during snake sort on S_n",
		"n", "routes", "per-generator transmissions g_0..g_{n-2}", "max/min")
	for _, n := range []int{4, 5} {
		sm := starsim.New(n)
		sm.AddReg("K")
		keys := workload.Keys(workload.Uniform, sm.Size(), int64(n))
		meshID := make([]int, sm.Size())
		for pe := range meshID {
			meshID[pe] = core.UnmapID(n, pe)
		}
		sm.Set("K", func(pe int) int64 { return keys[meshID[pe]] })
		res := sorting.SnakeSortStar(sm, "K", meshID)
		uses := sm.PortUses()
		s := ""
		lo, hi := uses[0], uses[0]
		for i, u := range uses {
			if i > 0 {
				s += " "
			}
			s += fmt.Sprint(u)
			if u < lo {
				lo = u
			}
			if u > hi {
				hi = u
			}
		}
		ratio := "inf"
		if lo > 0 {
			ratio = fmt.Sprintf("%.2f", float64(hi)/float64(lo))
		}
		t.Add(n, res.UnitRoutes, s, ratio)
		if !res.Sorted {
			return fmt.Errorf("sort failed at n=%d", n)
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nlow generators carry most traffic: snake steps along small dimensions dominate,")
	fmt.Fprintln(w, "and every dimension-k path uses generator k twice plus one lower generator")
	return nil
}

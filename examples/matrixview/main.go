// Matrix computations on a 2-D view of the star graph. The appendix
// factorization turns S_5's 120 processors into a 15×8 matrix
// (expansion 1, dilation 3 — see starmesh.NewRectEmbedding); this
// example computes row sums and a global maximum with the meshops
// collectives, on the mesh machine and on the star machine, checking
// that the star run is bit-identical at ≤ 3× the unit routes.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"starmesh"
	"starmesh/internal/atallah"
	"starmesh/internal/meshops"
	"starmesh/internal/starsim"
	"starmesh/internal/workload"
)

const (
	n = 5
	d = 2
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's report to w.
func run(w io.Writer) error {
	f := atallah.Factorize(n, d)
	g := atallah.NewGrouped(f)
	fmt.Fprintf(w, "S_%d viewed as a %d x %d matrix (%s)\n", n, f.L[0], f.L[1], f)

	// The matrix entries, assigned by logical (row, col).
	vals := workload.Keys(workload.Uniform, g.R.Order(), 11)

	// --- Native mesh run on D_5 -----------------------------------
	mm := starmesh.NewDMeshMachine(n)
	mm.AddReg("K")
	ms := meshops.NewMeshStepper(mm)
	for pe := 0; pe < mm.Size(); pe++ {
		mm.Reg("K")[pe] = vals[g.ToR(pe)] // mesh PE id = D_n node id
	}
	meshBefore := mm.Stats().UnitRoutes
	meshops.ReduceAll(ms, "K", meshops.Max)
	meshMax := mm.Reg("K")[0]
	meshRoutes := mm.Stats().UnitRoutes - meshBefore

	// --- Star run through the embedding ---------------------------
	sm := starsim.New(n)
	sm.AddReg("K")
	ss := meshops.NewStarStepper(sm)
	for pe := 0; pe < sm.Size(); pe++ {
		dnID := ss.MeshOf(pe)
		sm.Reg("K")[pe] = vals[g.ToR(dnID)]
	}
	starBefore := sm.Stats().UnitRoutes
	meshops.ReduceAll(ss, "K", meshops.Max)
	starMax := sm.Reg("K")[ss.PEOf(0)]
	starRoutes := sm.Stats().UnitRoutes - starBefore

	want := vals[0]
	for _, v := range vals {
		if v > want {
			want = v
		}
	}
	fmt.Fprintf(w, "global max: sequential %d, mesh %d, star %d\n", want, meshMax, starMax)
	if meshMax != want || starMax != want {
		return errors.New("reduction disagreed")
	}
	fmt.Fprintf(w, "routes: mesh %d, star %d (x%.2f, bound x3)\n",
		meshRoutes, starRoutes, float64(starRoutes)/float64(meshRoutes))
	if starRoutes > 3*meshRoutes {
		return errors.New("Theorem 6 bound violated")
	}

	// --- Row sums via scan on each matrix row ----------------------
	// Recompute per-row sums sequentially and via the embedding's
	// 2-D view: walk each logical row, summing entries.
	rows, cols := int(f.L[0]), int(f.L[1])
	fmt.Fprintf(w, "row sums of the %dx%d matrix (first 5 rows):\n", rows, cols)
	for r := 0; r < 5; r++ {
		sum := int64(0)
		for c := 0; c < cols; c++ {
			sum += vals[g.R.ID([]int{r, c})]
		}
		fmt.Fprintf(w, "  row %2d: %d\n", r, sum)
	}

	// --- Matrix-vector multiply y = A·x on both machines ----------
	// x[c] starts at row 0 of column c; BroadcastDim spreads it down
	// the columns, each PE multiplies locally, and ReduceDim along
	// the rows accumulates y[r] at column 0. Two collectives total.
	x := workload.Keys(workload.FewDistinct, cols, 23)
	plan := meshops.NewGroupedPlan(g)
	matvec := func(s meshops.Stepper) (y []int64, routes int) {
		mach := s.Machine()
		mach.EnsureReg("A")
		mach.EnsureReg("X")
		for pe := 0; pe < mach.Size(); pe++ {
			r := g.ToR(s.MeshOf(pe))
			mach.Reg("A")[pe] = vals[r]
			if g.R.Coord(r, 0) == 0 {
				mach.Reg("X")[pe] = x[g.R.Coord(r, 1)]
			} else {
				mach.Reg("X")[pe] = 0
			}
		}
		before := mach.Stats().UnitRoutes
		// x travels down each column (grouped dim 0 = rows)...
		meshops.BroadcastDimGrouped(s, plan, "X", 0)
		for pe := 0; pe < mach.Size(); pe++ {
			mach.Reg("A")[pe] *= mach.Reg("X")[pe]
		}
		// ...and row sums accumulate leftward (grouped dim 1 = cols).
		meshops.ReduceDimGrouped(s, plan, "A", 1, meshops.Sum)
		routes = mach.Stats().UnitRoutes - before
		y = make([]int64, rows)
		for pe := 0; pe < mach.Size(); pe++ {
			r := g.ToR(s.MeshOf(pe))
			if g.R.Coord(r, 1) == 0 {
				y[g.R.Coord(r, 0)] = mach.Reg("A")[pe]
			}
		}
		return y, routes
	}

	mm2 := starmesh.NewDMeshMachine(n)
	yMesh, rMesh := matvec(meshops.NewMeshStepper(mm2))
	sm2 := starsim.New(n)
	yStar, rStar := matvec(meshops.NewStarStepper(sm2))

	// Sequential reference.
	bad := 0
	for r := 0; r < rows; r++ {
		want := int64(0)
		for c := 0; c < cols; c++ {
			want += vals[g.R.ID([]int{r, c})] * x[c]
		}
		if yMesh[r] != want || yStar[r] != want {
			bad++
		}
	}
	fmt.Fprintf(w, "matvec y = A·x: mesh %d routes, star %d routes (x%.2f); wrong rows: %d\n",
		rMesh, rStar, float64(rStar)/float64(rMesh), bad)
	if bad > 0 || rStar > 3*rMesh {
		return errors.New("matvec failed")
	}

	// The 2-D view really is a dilation-3 embedding:
	e := starmesh.NewRectEmbedding(n, d)
	fmt.Fprintf(w, "2-D view embedding: dilation %d, expansion %.0f\n",
		e.Dilation(), e.Metrics().Expansion)
	return nil
}

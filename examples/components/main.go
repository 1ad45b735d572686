// Connected-component labeling of a binary image on the star graph —
// the workload class the paper's introduction cites ([NASS80],
// image processing / pattern recognition). The 120 processors of S_5
// are viewed as a 15×8 pixel grid through the appendix factorization;
// each foreground pixel repeatedly adopts the minimum label among its
// 4-connected foreground neighbors until a fixpoint. The run executes
// on the mesh machine and on the star machine through the embedding
// and is checked against a sequential union-find.
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
)

const (
	n = 5
	d = 2
)

// image returns a deterministic binary image over the grid.
func image(rows, cols int) []bool {
	img := make([]bool, rows*cols)
	x := uint64(99)
	for i := range img {
		x = x*6364136223846793005 + 1442695040888963407
		img[i] = x%100 < 55 // ~55% foreground
	}
	return img
}

// sequentialLabels computes reference component labels (min pixel
// index per component) with a flood fill.
func sequentialLabels(rows, cols int, img []bool) []int64 {
	labels := make([]int64, rows*cols)
	for i := range labels {
		labels[i] = -1
	}
	id := func(r, c int) int { return r*cols + c }
	for start := range img {
		if !img[start] || labels[start] != -1 {
			continue
		}
		// BFS; the component label is the minimum pixel index, which
		// for scan order is the start pixel.
		queue := []int{start}
		labels[start] = int64(start)
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			r, c := p/cols, p%cols
			for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				if nb[0] < 0 || nb[0] >= rows || nb[1] < 0 || nb[1] >= cols {
					continue
				}
				q := id(nb[0], nb[1])
				if img[q] && labels[q] == -1 {
					labels[q] = int64(start)
					queue = append(queue, q)
				}
			}
		}
	}
	// Components keep the min index of their members as label; the
	// BFS above labels by start pixel, which IS the min index in
	// scan order. Foreground check below relies on that.
	return labels
}

// parallelComponents runs min-label propagation on a stepper and
// returns the labels (indexed by grid pixel) and unit routes used.
func parallelComponents(s meshops.Stepper, g *atallah.Grouped, plan *meshops.GroupedPlan,
	rows, cols int, img []bool) ([]int64, int) {
	mach := s.Machine()
	mach.EnsureReg("L")  // current label (or big sentinel for background)
	mach.EnsureReg("in") // incoming neighbor label
	const bg = int64(1) << 40
	pixel := func(pe int) int {
		r := g.ToR(s.MeshOf(pe))
		return g.R.Coord(r, 0)*cols + g.R.Coord(r, 1)
	}
	for pe := 0; pe < mach.Size(); pe++ {
		px := pixel(pe)
		if img[px] {
			mach.Reg("L")[pe] = int64(px)
		} else {
			mach.Reg("L")[pe] = bg
		}
	}
	before := mach.Stats().UnitRoutes
	// Propagate for at most rows+cols iterations (grid diameter);
	// each iteration sends labels along all 4 grid directions.
	for it := 0; it < rows+cols; it++ {
		changed := false
		for t := 0; t < 2; t++ {
			for _, dir := range []int{+1, -1} {
				mach.Set("in", func(pe int) int64 { return bg })
				// One grouped unit route along grid dimension t.
				meshops.GroupedStep(s, plan, "L", "in", t, dir)
				l, in := mach.Reg("L"), mach.Reg("in")
				for pe := range l {
					if l[pe] == bg {
						continue // background pixels stay background
					}
					if in[pe] < l[pe] {
						l[pe] = in[pe]
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	routes := mach.Stats().UnitRoutes - before
	labels := make([]int64, rows*cols)
	for pe := 0; pe < mach.Size(); pe++ {
		px := pixel(pe)
		v := mach.Reg("L")[pe]
		if v == bg {
			v = -1
		}
		labels[px] = v
	}
	return labels, routes
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's report to w.
func run(w io.Writer) error {
	f := atallah.Factorize(n, d)
	g := atallah.NewGrouped(f)
	plan := meshops.NewGroupedPlan(g)
	rows, cols := int(f.L[0]), int(f.L[1])
	img := image(rows, cols)
	want := sequentialLabels(rows, cols, img)

	mm := starmesh.NewDMeshMachine(n)
	lm, rm := parallelComponents(meshops.NewMeshStepper(mm), g, plan, rows, cols, img)

	sm := starsim.New(n)
	ls, rs := parallelComponents(meshops.NewStarStepper(sm), g, plan, rows, cols, img)

	bad := 0
	comps := map[int64]bool{}
	for i := range want {
		if lm[i] != want[i] || ls[i] != want[i] {
			bad++
		}
		if want[i] >= 0 {
			comps[want[i]] = true
		}
	}
	fmt.Fprintf(w, "connected components on a %dx%d image (S_%d as a 2-D grid)\n", rows, cols, n)
	fmt.Fprintf(w, "  components found: %d; mislabeled pixels: %d\n", len(comps), bad)
	fmt.Fprintf(w, "  routes: mesh %d, star %d (x%.2f, Theorem-6 bound x3)\n",
		rm, rs, float64(rs)/float64(rm))
	if bad != 0 || rs > 3*rm {
		return errors.New("component labeling failed")
	}

	// Render the labeled image (letters per component).
	names := map[int64]byte{}
	next := byte('A')
	for r := 0; r < rows; r++ {
		line := make([]byte, cols)
		for c := 0; c < cols; c++ {
			l := want[r*cols+c]
			if l < 0 {
				line[c] = '.'
				continue
			}
			if _, ok := names[l]; !ok {
				names[l] = next
				if next < 'Z' {
					next++
				}
			}
			line[c] = names[l]
		}
		fmt.Fprintf(w, "  %s\n", line)
	}
	return nil
}

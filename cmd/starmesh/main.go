// Command starmesh is a CLI for the star-graph mesh embedding.
//
// Usage:
//
//	starmesh map d_{n-1} ... d_1      mesh node -> star node (Fig 5)
//	starmesh unmap a_{n-1} ... a_0    star node -> mesh node (Fig 6)
//	starmesh route a... b...          shortest star route between two nodes
//	starmesh path k dir a_{n-1}...a_0 Lemma-2 path for a mesh step
//	starmesh info n                   properties of S_n and D_n
//	starmesh dot n                    Graphviz DOT of S_n (n <= 5)
//	starmesh fig7                     the Figure-7 table
//	starmesh surface n                distance distribution of S_n
//	starmesh broadcast n              measured broadcast rounds vs bounds
//	starmesh saferoute f a... b...    route avoiding f random faults
//	starmesh scenarios [-markdown]    the scenario-registry catalog
//	starmesh run <json-spec>          run one scenario standalone
//	starmesh serve [flags]            run the simulation job service (HTTP)
//
// Remote subcommands (drive a running service's v1 API through the
// typed client package starmesh/client):
//
//	starmesh submit [-wait] <json-spec>...   admit one job (or an atomic batch)
//	starmesh jobs [-status s] [-all]         list jobs (cursor pagination)
//	starmesh cancel [-wait] <job-id>         cancel a queued or running job
//	starmesh watch <job-id>                  stream status transitions
//	starmesh stats [-healthz]                aggregated service view / health
//	starmesh cluster status|drain <node>     sharded-cluster membership, stats, drain
//
// Node symbols are given in display order (front first), matching
// the paper: `starmesh unmap 0 3 1 2` is the node (0 3 1 2).
package main

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"starmesh/internal/core"
	"starmesh/internal/graphalg"
	"starmesh/internal/mesh"
	"starmesh/internal/perm"
	"starmesh/internal/star"
	"starmesh/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "map":
		cmdMap(os.Args[2:])
	case "unmap":
		cmdUnmap(os.Args[2:])
	case "route":
		cmdRoute(os.Args[2:])
	case "path":
		cmdPath(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "dot":
		cmdDot(os.Args[2:])
	case "fig7":
		cmdFig7()
	case "surface":
		cmdSurface(os.Args[2:])
	case "broadcast":
		cmdBroadcast(os.Args[2:])
	case "saferoute":
		cmdSafeRoute(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "scenarios":
		cmdScenarios(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "submit":
		cmdSubmit(os.Args[2:])
	case "jobs":
		cmdJobs(os.Args[2:])
	case "cancel":
		cmdCancel(os.Args[2:])
	case "watch":
		cmdWatch(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "cluster":
		cmdCluster(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: starmesh <map|unmap|route|path|info|dot|fig7|surface|broadcast|saferoute|scenarios|run|serve|submit|jobs|cancel|watch|stats|cluster> [args]
  map d_{n-1} ... d_1        mesh node -> star node
  unmap a_{n-1} ... a_0      star node -> mesh node
  route a... b...            shortest star route (two nodes of equal length)
  path k dir a_{n-1}...a_0   Lemma-2 path for mesh step along dim k (dir=+1|-1)
  info n                     properties of S_n / D_n
  dot n                      Graphviz DOT of S_n (n <= 5)
  fig7                       regenerate Figure 7
  surface n                  distance distribution of S_n
  broadcast n                measured broadcast rounds vs bounds
  saferoute f a... b...      route avoiding f random faults
  scenarios [-markdown]      the scenario-registry catalog
  run <json-spec> [flags]    run one scenario standalone (see run -h)
  serve [flags]              simulation job service over HTTP (see serve -h)

remote subcommands against a running service's v1 API (-addr flag,
all traffic through the typed starmesh/client package):
  submit [-wait] <spec>...   admit one JSON spec (several = atomic batch)
  jobs [-status s] [-all]    list jobs, status filter + cursor pagination
  cancel [-wait] <job-id>    cancel a queued or running job
  watch <job-id>             stream status transitions until terminal
  stats [-healthz]           aggregated stats or drain-aware health
  cluster status             sharded cluster: membership + merged stats
  cluster drain [-wait] <node>  drain one node, migrating its queued jobs

scenario kinds (accepted by run, submit and POST /v1/jobs):
  %s
`, strings.Join(workload.Kinds(), ", "))
	os.Exit(2)
}

func ints(args []string) ([]int, error) {
	out := make([]int, len(args))
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("not an integer: %q", a)
		}
		out[i] = v
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "starmesh: "+format+"\n", args...)
	os.Exit(1)
}

// exitOn ends the process through fatalf if err is set.
func exitOn(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

// displayToPerm parses display-order symbols (front first) into a
// Perm.
func displayToPerm(args []string) (perm.Perm, error) {
	sym, err := ints(args)
	if err != nil {
		return nil, err
	}
	if len(sym) == 0 {
		return nil, errors.New("a node needs at least one symbol")
	}
	rev := make([]int, len(sym))
	for i, s := range sym {
		rev[len(sym)-1-i] = s
	}
	return perm.New(rev)
}

// twoNodes parses the halves of args, whose length is even, as two
// display-order nodes.
func twoNodes(args []string) (a, b perm.Perm, err error) {
	half := len(args) / 2
	if a, err = displayToPerm(args[:half]); err != nil {
		return nil, nil, err
	}
	b, err = displayToPerm(args[half:])
	return a, b, err
}

func cmdMap(args []string)       { exitOn(mapNode(os.Stdout, args)) }
func cmdUnmap(args []string)     { exitOn(unmapNode(os.Stdout, args)) }
func cmdRoute(args []string)     { exitOn(starRoute(os.Stdout, args)) }
func cmdPath(args []string)      { exitOn(meshStepPath(os.Stdout, args)) }
func cmdSafeRoute(args []string) { exitOn(safeRoute(os.Stdout, args)) }

// mapNode writes the star node of the mesh node whose coordinates
// args gives as d_{n-1} … d_1, the paper's tuple order.
func mapNode(w io.Writer, args []string) error {
	ds, err := ints(args)
	if err != nil {
		return err
	}
	if len(ds) == 0 {
		return errors.New("map needs mesh coordinates")
	}
	pt := make([]int, len(ds))
	for i, d := range ds {
		pt[len(ds)-1-i] = d
	}
	n := len(pt) + 1
	for k := 1; k <= n-1; k++ {
		if pt[k-1] < 0 || pt[k-1] > k {
			return fmt.Errorf("d_%d = %d out of range [0,%d]", k, pt[k-1], k)
		}
	}
	p := core.ConvertDS(pt)
	fmt.Fprintf(w, "mesh %s  ->  star %s  (vertex id %d of %d)\n",
		mesh.DPointString(pt), p, p.Rank(), perm.Factorial(n))
	return nil
}

// unmapNode writes the mesh node of the star node args names.
func unmapNode(w io.Writer, args []string) error {
	p, err := displayToPerm(args)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "star %s  ->  mesh %s\n", p, mesh.DPointString(core.ConvertSD(p)))
	return nil
}

// starRoute writes a shortest star route between the two nodes args
// names.
func starRoute(w io.Writer, args []string) error {
	if len(args)%2 != 0 {
		return errors.New("route needs two nodes of equal length")
	}
	a, b, err := twoNodes(args)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "distance %d\n", star.Distance(a, b))
	for i, q := range star.Route(a, b) {
		fmt.Fprintf(w, "  %2d  %s\n", i, q)
	}
	return nil
}

// meshStepPath writes the Lemma-2 star path of one mesh step: args
// are k, dir and the node, with 1 ≤ k ≤ n-1 and dir ±1.
func meshStepPath(w io.Writer, args []string) error {
	if len(args) < 3 {
		return errors.New("path needs k, dir and a node")
	}
	k, err := strconv.Atoi(args[0])
	if err != nil {
		return errors.New("bad k")
	}
	dir, err := strconv.Atoi(args[1])
	if err != nil || (dir != 1 && dir != -1) {
		return errors.New("dir must be +1 or -1")
	}
	p, err := displayToPerm(args[2:])
	if err != nil {
		return err
	}
	if k < 1 || k > p.N()-1 {
		return fmt.Errorf("k = %d out of range [1,%d]", k, p.N()-1)
	}
	path, ok := core.Path(p, k, dir)
	if !ok {
		fmt.Fprintf(w, "node %s is at the mesh boundary along dimension %d (dir %+d)\n", p, k, dir)
		return nil
	}
	fmt.Fprintf(w, "mesh step along dimension %d (dir %+d): %d star hops\n", k, dir, len(path)-1)
	for i, q := range path {
		fmt.Fprintf(w, "  %2d  %s   (mesh %s)\n", i, q, mesh.DPointString(core.ConvertSD(q)))
	}
	return nil
}

func cmdInfo(args []string) {
	if len(args) != 1 {
		fatalf("info needs n")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 2 || n > 12 {
		fatalf("n must be in 2..12")
	}
	fmt.Printf("S_%d: %d nodes, degree %d, diameter %d\n",
		n, perm.Factorial(n), n-1, star.DiameterFormula(n))
	dn := mesh.D(n)
	fmt.Printf("D_%d: %s, %d nodes, max degree %d, diameter %d\n",
		n, dn, dn.Order(), dn.MaxDegree(), dn.Diameter())
	fmt.Printf("embedding: expansion 1, dilation 3 (Theorem 4); unit route in <=3 star routes (Theorem 6)\n")
	if n <= 7 {
		g := star.New(n)
		fmt.Printf("measured: BFS diameter %d, avg distance %.2f, broadcast rounds %d (>= %d)\n",
			graphalg.DiameterFromVertex(g), graphalg.AvgDistance(g, 0),
			g.GreedyBroadcast(0), star.BroadcastLowerBound(n))
	}
}

func cmdDot(args []string) {
	if len(args) != 1 {
		fatalf("dot needs n")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 2 || n > 5 {
		fatalf("n must be in 2..5 for DOT output")
	}
	fmt.Println("graph Sn {")
	fmt.Println("  layout=neato;")
	perm.All(n, func(p perm.Perm) bool {
		id := p.Rank()
		for _, q := range star.NeighborPerms(p) {
			if q.Rank() > id {
				fmt.Printf("  %q -- %q;\n", p.String(), q.String())
			}
		}
		return true
	})
	fmt.Println("}")
}

func cmdFig7() {
	fmt.Println("D4            S4")
	for _, row := range core.Figure7 {
		pt := []int{row.Mesh[2], row.Mesh[1], row.Mesh[0]}
		fmt.Printf("%-12s  %s\n", mesh.DPointString(pt), core.ConvertDS(pt))
	}
}

func cmdSurface(args []string) {
	if len(args) != 1 {
		fatalf("surface needs n")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 2 || n > 10 {
		fatalf("n must be in 2..10")
	}
	hist := star.SurfaceAreas(n)
	fmt.Printf("S_%d: %d nodes, diameter %d, mean distance %.3f\n",
		n, perm.Factorial(n), star.DiameterFormula(n), star.MeanDistance(n))
	for d, c := range hist {
		fmt.Printf("  d=%2d: %d\n", d, c)
	}
}

func cmdBroadcast(args []string) {
	if len(args) != 1 {
		fatalf("broadcast needs n")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 2 || n > 8 {
		fatalf("n must be in 2..8")
	}
	g := star.New(n)
	rounds := g.GreedyBroadcast(0)
	fmt.Printf("S_%d greedy SIMD-B broadcast: %d unit routes\n", n, rounds)
	fmt.Printf("  information lower bound ceil(lg n!)   = %d\n", star.BroadcastLowerBound(n))
	fmt.Printf("  paper upper bound 3(n lg n - 3/2)     = %.1f\n", star.BroadcastUpperBound(n))
}

// safeRoute writes a shortest route between two nodes that avoids
// f pseudo-random faulty nodes, drawn from a fixed seed. The faults
// are listed in id order, so every run prints the same bytes.
func safeRoute(w io.Writer, args []string) error {
	if len(args) < 3 || (len(args)-1)%2 != 0 {
		return errors.New("saferoute needs fault count and two nodes of equal length")
	}
	f, err := strconv.Atoi(args[0])
	if err != nil || f < 0 {
		return errors.New("bad fault count")
	}
	a, b, err := twoNodes(args[1:])
	if err != nil {
		return err
	}
	g := star.New(a.N())
	if f > g.Order()-2 {
		return fmt.Errorf("at most %d of the %d nodes can fail besides the endpoints", g.Order()-2, g.Order())
	}
	if f > g.MaxSafeFaults() {
		fmt.Fprintf(w, "warning: %d faults exceeds the guaranteed-safe n-2 = %d\n", f, g.MaxSafeFaults())
	}
	faulty := map[int]bool{}
	x := uint64(12345)
	for len(faulty) < f {
		x = x*6364136223846793005 + 1442695040888963407
		h := int(x % uint64(g.Order()))
		if h != g.ID(a) && h != g.ID(b) {
			faulty[h] = true
		}
	}
	fmt.Fprintf(w, "faults (%d): ", len(faulty))
	for _, h := range slices.Sorted(maps.Keys(faulty)) {
		fmt.Fprintf(w, "%v ", g.Node(h))
	}
	fmt.Fprintln(w)
	path := g.RouteAvoiding(a, b, faulty)
	if path == nil {
		return errors.New("no healthy route exists")
	}
	fmt.Fprintf(w, "healthy distance %d, detour length %d\n", star.Distance(a, b), len(path)-1)
	for i, q := range path {
		fmt.Fprintf(w, "  %2d  %s\n", i, q)
	}
	return nil
}

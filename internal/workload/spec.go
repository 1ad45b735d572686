// Spec: the typed, JSON-serializable description of one scenario
// run — scenario kind plus machine shape plus parameters. A spec
// fully determines its result: all randomness derives from the
// explicit Seed through NewRand. The job service (internal/serve)
// admits specs verbatim; the scenario registry (registry.go) is the
// single place that validates, shapes, builds and runs them.
package workload

import (
	"fmt"
	"strings"
)

// Scenario kinds. Star-machine kinds (sort, broadcast, sweep,
// embedrect, pipeline) share one machine pool per n; shear uses a
// mesh pool per (rows, cols); faultroute and diagnostics share a
// bare star-graph pool per n; permroute needs no pooled state.
const (
	KindSort        = "sort"        // snake sort on the embedded mesh of S_n
	KindShear       = "shear"       // shear sort on a rows×cols mesh
	KindBroadcast   = "broadcast"   // greedy SIMD-B flood on S_n
	KindSweep       = "sweep"       // full mesh-unit-route sweep on S_n
	KindFaultRoute  = "faultroute"  // routing around random fault sets on S_n
	KindEmbedRect   = "embedrect"   // Atallah rectangular-mesh embedding + grouped unit-route sweep
	KindPermRoute   = "permroute"   // oblivious permutation routing with conflict accounting
	KindVirtual     = "virtual"     // D_{n+1}-on-S_n virtual snake sort (n+1 nodes per PE)
	KindDiagnostics = "diagnostics" // graphalg fault sweep: connectivity/diameter under vertex holes
	KindPipeline    = "pipeline"    // multi-phase chain embed → sort → broadcast on one machine
)

// MaxStarN bounds the star parameter a spec may request (S_8 =
// 40,320 PEs; the neighbor table alone is ~1.5 GB at n=10, so
// validation rejects anything larger instead of letting one request
// exhaust the process).
const MaxStarN = 8

// MaxMeshPEs bounds rows×cols for shear specs.
const MaxMeshPEs = 1 << 16

// MaxPermRouteN bounds permutation routing: every node sources one
// message, and each synchronous step scans all n! of them, so the
// cost grows much faster than a single machine workload.
const MaxPermRouteN = 7

// MaxVirtualN bounds the virtualized machine: a virtual snake sort
// runs (n+1)! odd-even phases over n! PEs.
const MaxVirtualN = 5

// MaxDiagnosticTrials bounds the fault-sweep repetition count.
const MaxDiagnosticTrials = 64

// MaxSweepTrials bounds sweep repetition: a sweep job runs trials
// full mesh-unit-route sweeps back to back — the service's
// long-running workload class (cancellation checkpoints fire before
// every unit route, so even the largest job aborts promptly).
const MaxSweepTrials = 1 << 20

// MaxPriority bounds the scheduling priority a spec may request
// (0 = default, MaxPriority = most urgent). The range is validated
// centrally in Normalized, before family dispatch — priority is a
// scheduling property, not a per-family one.
const MaxPriority = 9

// Spec describes one scenario run.
type Spec struct {
	Kind string `json:"kind"`
	// N is the star parameter for every star-shaped kind.
	N int `json:"n,omitempty"`
	// Rows, Cols shape the mesh for shear specs.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Dist names the key distribution for sort/shear/virtual/pipeline
	// (see Dists; empty means uniform).
	Dist string `json:"dist,omitempty"`
	// Seed drives every random draw of the run.
	Seed int64 `json:"seed,omitempty"`
	// Source is the broadcast origin PE (broadcast, pipeline).
	Source int `json:"source,omitempty"`
	// Faults and Pairs parameterize faultroute specs (faults ≤ n-2;
	// Pairs defaults to 1).
	Faults int `json:"faults,omitempty"`
	Pairs  int `json:"pairs,omitempty"`
	// D is the rectangular-mesh dimension count for embedrect and
	// pipeline (1 ≤ d ≤ n-1; defaults to 2).
	D int `json:"d,omitempty"`
	// Pattern names the permroute destination pattern (see
	// PermPatterns; empty means random).
	Pattern string `json:"pattern,omitempty"`
	// Holes parameterizes diagnostics specs: each trial deletes Holes
	// random vertices (≤ n-2, so the graph provably stays connected)
	// and measures reachability and eccentricity.
	Holes int `json:"holes,omitempty"`
	// Trials is the repetition count of diagnostics (fault-sweep
	// trials) and sweep (back-to-back full sweeps — the long-running
	// job class) specs. Defaults to 1.
	Trials int `json:"trials,omitempty"`
	// Priority orders jobs within one tenant's queue (0–MaxPriority,
	// higher first) and lets urgent submissions preempt long
	// lower-priority sweeps at their cancellation checkpoints. It does
	// not affect the result — only when the job runs.
	Priority int `json:"priority,omitempty"`
}

// Normalized validates the spec against its family and fills
// defaults, returning the canonical form services store and execute.
// The error is actionable: it names the offending field and the
// accepted range.
func (s Spec) Normalized() (Spec, error) {
	if s.Priority < 0 || s.Priority > MaxPriority {
		return s, fmt.Errorf("workload: priority %d out of range (want 0..%d)", s.Priority, MaxPriority)
	}
	f, err := FamilyOf(s.Kind)
	if err != nil {
		return s, err
	}
	return f.Normalize(s)
}

// Shape is the machine-pool key of the spec: specs with equal shapes
// run on interchangeable resources. Every job machine is built with
// the same options, so the key is the topology alone. Unknown kinds
// shape to "invalid" (they never pass Normalized, so no pool is ever
// built for them).
func (s Spec) Shape() string {
	f, err := FamilyOf(s.Kind)
	if err != nil {
		return "invalid"
	}
	return f.Shape(s)
}

// Name renders the spec in the scenario naming scheme.
func (s Spec) Name() string {
	f, err := FamilyOf(s.Kind)
	if err != nil {
		return "invalid"
	}
	return f.Name(s)
}

func factorial(n int) int64 {
	f := int64(1)
	for i := 2; i <= n; i++ {
		f *= int64(i)
	}
	return f
}

// DistByName resolves a distribution name ("" means uniform).
func DistByName(name string) (Dist, error) {
	if name == "" {
		return Uniform, nil
	}
	for _, d := range Dists {
		if d.Name == name {
			return d.D, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown distribution %q (want one of %s)", name, distNames())
}

func distNames() string {
	names := make([]string, len(Dists))
	for i, d := range Dists {
		names[i] = d.Name
	}
	return strings.Join(names, ", ")
}

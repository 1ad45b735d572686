package starmesh

import (
	"starmesh/internal/atallah"
	"starmesh/internal/core"
	"starmesh/internal/embed"
	"starmesh/internal/graphalg"
	"starmesh/internal/mesh"
	"starmesh/internal/meshsim"
	"starmesh/internal/perm"
	"starmesh/internal/simd"
	"starmesh/internal/star"
	"starmesh/internal/starsim"
	"starmesh/internal/virtual"
)

// EngineOption selects the execution engine of a SIMD machine: the
// strategy that carries out the per-PE work of every unit route.
// All machine constructors accept engine options; the default is the
// sequential reference engine.
type EngineOption = simd.Option

// SequentialEngine selects the single-threaded reference executor —
// the semantic ground truth every other engine must match
// bit-for-bit.
func SequentialEngine() EngineOption {
	return simd.WithExecutor(simd.Sequential())
}

// ParallelEngine selects the sharded executor: each unit route
// splits the PE range across the given number of workers (<= 0
// selects GOMAXPROCS) running on a persistent per-machine pool
// (started lazily, reused across routes, released by the machine's
// Close method or at GC), and merges per-shard results
// deterministically, so Stats, register contents and conflict
// diagnostics are identical to SequentialEngine. Programs must use
// pure per-PE functions (every algorithm in this module qualifies).
func ParallelEngine(workers int) EngineOption {
	return simd.WithExecutor(simd.Parallel(workers))
}

// WithPlans enables or disables compiled route plans (default
// enabled): machines record each pure unit-route schedule once —
// resolving every PE's port and destination into dense delivery
// tables via the existing closures — and replay it afterwards with a
// tight array walk, sharing compiled plans across machines of the
// same shape through SharedPlans. Replay is bit-identical to closure
// resolution (Stats, PortUses, registers, conflicts); disabling
// plans restores the per-route closure path.
func WithPlans(enabled bool) EngineOption { return simd.WithPlans(enabled) }

// RoutePlan is a compiled unit-route schedule: the value returned by
// a machine's Record method and accepted by Replay. See
// internal/simd's plan layer for the recording/replay contract.
type RoutePlan = simd.Plan

// PlanCache shares compiled route plans across machines of the same
// shape, keyed by (topology identity, schedule key).
type PlanCache = simd.PlanCache

// SharedPlans is the process-wide plan cache every machine records
// into by default.
var SharedPlans = simd.SharedPlans

// Perm is a star-graph node label: a permutation of {0..n-1} with
// Perm[i] the symbol at position i and position n-1 the front. Its
// String renders the paper's display form, e.g. "(0 3 1 2)".
type Perm = perm.Perm

// NewPerm validates and copies a permutation given as the symbol at
// each position (position 0 first; the front symbol is the last
// element).
func NewPerm(symbols []int) (Perm, error) { return perm.New(symbols) }

// IdentityPerm returns (n-1 n-2 … 1 0), the image of the mesh origin.
func IdentityPerm(n int) Perm { return perm.Identity(n) }

// MapMeshNode maps mesh coordinates onto a star node — the paper's
// CONVERT-D-S (Figure 5). pt[k-1] = d_k with 0 ≤ d_k ≤ k, so len(pt)
// = n-1 for S_n. O(n²).
func MapMeshNode(pt []int) Perm { return core.ConvertDS(pt) }

// UnmapStarNode inverts MapMeshNode — the paper's CONVERT-S-D
// (Figure 6). O(n²).
func UnmapStarNode(p Perm) []int { return core.ConvertSD(p) }

// MeshNeighbor returns the star node hosting the mesh neighbor of
// p's mesh node along dimension k (1 ≤ k ≤ n-1) in direction dir
// (±1), computed by the closed form of Lemma 3 without converting
// back to mesh coordinates. ok is false at the mesh boundary.
func MeshNeighbor(p Perm, k, dir int) (q Perm, ok bool) { return core.Neighbor(p, k, dir) }

// EdgePath returns the host path (of length 1 or 3, Lemma 2)
// realizing the mesh edge from p along dimension k, direction dir.
func EdgePath(p Perm, k, dir int) (path []Perm, ok bool) { return core.Path(p, k, dir) }

// StarDistance returns the exact shortest-path distance between two
// star nodes (closed form; no search).
func StarDistance(p, q Perm) int { return star.Distance(p, q) }

// StarRoute returns one shortest path between two star nodes.
func StarRoute(p, q Perm) []Perm { return star.Route(p, q) }

// Star is the star graph S_n with dense vertex ids (permutation
// ranks in [0, n!)).
type Star struct {
	G *star.Graph
}

// NewStar returns S_n.
func NewStar(n int) Star { return Star{G: star.New(n)} }

// N returns the star parameter n.
func (s Star) N() int { return s.G.N() }

// Order returns n!.
func (s Star) Order() int { return s.G.Order() }

// Degree returns n-1.
func (s Star) Degree() int { return s.G.Degree() }

// Diameter returns ⌊3(n-1)/2⌋.
func (s Star) Diameter() int { return star.DiameterFormula(s.G.N()) }

// Node returns the permutation with vertex id.
func (s Star) Node(id int) Perm { return s.G.Node(id) }

// ID returns the vertex id of a permutation.
func (s Star) ID(p Perm) int { return s.G.ID(p) }

// Neighbors returns the vertex ids adjacent to id.
func (s Star) Neighbors(id int) []int { return graphalg.Neighbors(s.G, id) }

// BroadcastRounds simulates greedy SIMD-B broadcast from the given
// vertex and returns the unit routes used.
func (s Star) BroadcastRounds(source int) int { return s.G.GreedyBroadcast(source) }

// DMesh is the paper's guest mesh D_n of shape 2×3×…×n.
type DMesh struct {
	M *mesh.Mesh
}

// NewDMesh returns D_n.
func NewDMesh(n int) DMesh { return DMesh{M: mesh.D(n)} }

// Order returns n!.
func (d DMesh) Order() int { return d.M.Order() }

// Dims returns n-1.
func (d DMesh) Dims() int { return d.M.Dims() }

// Coords decodes a mesh id (pt[k-1] = d_k).
func (d DMesh) Coords(id int) []int { return d.M.Coords(nil, id) }

// ID encodes mesh coordinates.
func (d DMesh) ID(pt []int) int { return d.M.ID(pt) }

// Embedding is the paper's dilation-3, expansion-1 embedding of D_n
// into S_n, with measured quality metrics.
type Embedding struct {
	N int
	E *embed.Embedding
}

// NewEmbedding assembles the embedding for S_n.
func NewEmbedding(n int) Embedding { return Embedding{N: n, E: core.NewEmbedding(n)} }

// Metrics measures expansion, dilation (max and average) and
// congestion over every guest edge using the Lemma-2 paths.
func (e Embedding) Metrics() embed.Metrics { return e.E.Measure() }

// Dilation returns the exact dilation via closed-form star distances.
func (e Embedding) Dilation() int { return e.E.DilationOnly() }

// Validate checks structural soundness of the embedding.
func (e Embedding) Validate() error { return e.E.Validate() }

// HostID returns the star vertex hosting mesh node id.
func (e Embedding) HostID(meshID int) int { return e.E.VertexMap[meshID] }

// NewRectEmbedding embeds the d-dimensional rectangular mesh
// obtained from the appendix factorization of n! into S_n (grouped
// snake realization + Lemma-2 paths): expansion 1, dilation 3 for
// any 1 ≤ d ≤ n-1.
func NewRectEmbedding(n, d int) Embedding {
	return Embedding{N: n, E: atallah.EmbedRect(n, d)}
}

// MeshMachine is a mesh-connected SIMD computer (unit-route counting
// simulator).
type MeshMachine = meshsim.Machine

// NewMeshMachine builds a machine over an arbitrary rectangular mesh
// with the given dimension sizes.
func NewMeshMachine(sizes []int, opts ...EngineOption) *MeshMachine {
	return meshsim.New(mesh.New(sizes...), opts...)
}

// NewDMeshMachine builds a machine over D_n.
func NewDMeshMachine(n int, opts ...EngineOption) *MeshMachine {
	return meshsim.New(mesh.D(n), opts...)
}

// StarMachine is a star-connected SIMD computer; its MeshUnitRoute
// performs the Theorem-6 three-route simulation of a mesh unit
// route.
type StarMachine = starsim.Machine

// NewStarMachine builds a machine over S_n.
func NewStarMachine(n int, opts ...EngineOption) *StarMachine { return starsim.New(n, opts...) }

// VirtualMachine runs the larger mesh D_{n+1} on S_n with n+1
// virtual mesh nodes per PE (amortized route factor ≤ 3; the extra
// dimension is an intra-PE slot shuffle and costs no routes).
type VirtualMachine = virtual.Machine

// NewVirtualMachine builds the virtualized machine over S_n.
func NewVirtualMachine(n int, opts ...EngineOption) *VirtualMachine {
	return virtual.New(n, opts...)
}

// Package workload provides deterministic, seeded input generators
// for the experiments and benchmarks: random keys with several
// adversarial distributions, random permutations, random mesh points
// and random vertex maps. Every generator has a seed form that
// derives a fresh stream via NewRand; keys also have a *rand.Rand
// form, KeysRand, through which the scenario runners thread one
// explicit stream so a multi-draw job stays reproducible from its
// seed. Nothing in this package touches the global math/rand state.
package workload

import (
	"math/rand"
	"sync"

	"starmesh/internal/perm"
)

// NewRand returns the deterministic random stream of a seed — the
// single way every workload, batch scenario and service JobSpec
// derives randomness, so a seed fully determines a run.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// withRand calls run with NewRand(seed)'s stream, drawn from a pool of
// recycled ones, and takes the stream back when run returns: run must
// not keep it. Seed restores exactly the state NewSource builds, so a
// recycled stream draws what a fresh one would, and a pool miss just
// builds one.
func withRand(seed int64, run func(rng *rand.Rand) (ScenarioResult, error)) (ScenarioResult, error) {
	rng := rands.Get().(*rand.Rand)
	defer rands.Put(rng)
	rng.Seed(seed)
	return run(rng)
}

// rands recycles withRand's streams: each holds a 4.9 KB source.
var rands = sync.Pool{New: func() any { return NewRand(0) }}

// Dist selects a key distribution.
type Dist int

const (
	// Uniform draws keys uniformly from [0, 4N).
	Uniform Dist = iota
	// Reversed is the odd-even-transposition worst case N-1 … 0.
	Reversed
	// Sorted is already in order (best case).
	Sorted
	// FewDistinct draws from only 4 distinct values.
	FewDistinct
	// ZeroOne draws from {0,1} (0-1 principle stress).
	ZeroOne
)

// Dists lists all distributions with printable names.
var Dists = []struct {
	D    Dist
	Name string
}{
	{Uniform, "uniform"},
	{Reversed, "reversed"},
	{Sorted, "sorted"},
	{FewDistinct, "few-distinct"},
	{ZeroOne, "zero-one"},
}

// Keys generates n keys of the given distribution from a fresh
// stream seeded with seed.
func Keys(d Dist, n int, seed int64) []int64 {
	return KeysRand(d, n, NewRand(seed))
}

// KeysRand generates n keys of the given distribution, drawing from
// the caller's random stream.
func KeysRand(d Dist, n int, rng *rand.Rand) []int64 {
	out := make([]int64, n)
	switch d {
	case Uniform:
		for i := range out {
			out[i] = int64(rng.Intn(4*n + 1))
		}
	case Reversed:
		for i := range out {
			out[i] = int64(n - 1 - i)
		}
	case Sorted:
		for i := range out {
			out[i] = int64(i)
		}
	case FewDistinct:
		for i := range out {
			out[i] = int64(rng.Intn(4))
		}
	case ZeroOne:
		for i := range out {
			out[i] = int64(rng.Intn(2))
		}
	default:
		panic("workload: unknown distribution")
	}
	return out
}

// Perms generates count random permutations of n symbols from a
// fresh stream seeded with seed.
func Perms(n, count int, seed int64) []perm.Perm {
	rng := NewRand(seed)
	out := make([]perm.Perm, count)
	for i := range out {
		out[i] = perm.Random(n, rng)
	}
	return out
}

// MeshPoints generates count random D_n coordinates from a fresh
// stream seeded with seed.
func MeshPoints(n, count int, seed int64) [][]int {
	rng := NewRand(seed)
	out := make([][]int, count)
	for i := range out {
		pt := make([]int, n-1)
		for k := 1; k <= n-1; k++ {
			pt[k-1] = rng.Intn(k + 1)
		}
		out[i] = pt
	}
	return out
}

// RandomVertexMap returns a random bijection [0,n) → [0,n) from a
// fresh stream seeded with seed.
func RandomVertexMap(n int, seed int64) []int {
	vm := make([]int, n)
	for i := range vm {
		vm[i] = i
	}
	NewRand(seed).Shuffle(n, func(i, j int) { vm[i], vm[j] = vm[j], vm[i] })
	return vm
}

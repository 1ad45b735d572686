package star

import "starmesh/internal/perm"

// Surface areas and distance statistics of S_n. The distance
// distribution ("how many nodes sit at distance d from a fixed
// node") determines average routing cost and backs the §2/intro
// claim that the star graph's diameter and mean distance grow
// sub-logarithmically in the node count N = n!.

// SurfaceAreas returns hist[d] = |{π : dist(π, id) = d}| computed
// with the closed-form distance (no BFS), so it is feasible up to
// n ≈ 10 (3.6M nodes).
func SurfaceAreas(n int) []int64 {
	hist := make([]int64, DiameterFormula(n)+1)
	perm.All(n, func(p perm.Perm) bool {
		hist[DistanceToIdentity(p)]++
		return true
	})
	return hist
}

// MeanDistance returns the average distance from a node to all
// others, from the closed-form distribution.
func MeanDistance(n int) float64 {
	hist := SurfaceAreas(n)
	var sum, count int64
	for d, c := range hist {
		sum += int64(d) * c
		count += c
	}
	if count <= 1 {
		return 0
	}
	return float64(sum) / float64(count-1)
}

// Log-bucket latency counts: the repository's one quantile
// estimator. /v1/stats, the tenant leaderboard and the load driver's
// records read every percentile they publish from these counts. The
// fixed-bucket histograms of obs.go feed /v1/metrics only: Prometheus
// computes its quantiles from them on the scraper side.
package obs

import (
	"math"
	"time"
)

// The mapping follows DDSketch's logarithmic buckets (Masson, Rim,
// Lee, VLDB 2019). With γ = (1+α)/(1−α), bucket k ≥ 1 holds the
// durations in (γ^(k−2), γ^(k−1)] ns and reports 2γ^(k−1)/(1+γ)
// rounded to a whole ns, which lies within α of every value in the
// bucket before the rounding; bucket 0 holds the durations ≤ 0 and
// reports 0. So a percentile read from the counts is within
// α·exact + ½ ns of the exact nearest-rank value. The array reaches
// γ^(latBuckets−2) ≥ 24 h; the top bucket also takes every longer
// duration and reports about 24 h for it.
const (
	latAlpha   = 0.01
	latGamma   = (1 + latAlpha) / (1 - latAlpha)
	latBuckets = 1607
)

var (
	latLogGamma = math.Log(latGamma)
	// latValues is the value each bucket reports.
	latValues = func() (v [latBuckets]int64) {
		for k := 1; k < latBuckets; k++ {
			v[k] = int64(math.Round(2 * math.Pow(latGamma, float64(k-1)) / (1 + latGamma)))
		}
		return v
	}()
)

// LatencyCounts counts durations per log bucket: index a duration's
// bucket with LatencyBucket and add or remove it, then read
// percentiles with Percentiles.
type LatencyCounts [latBuckets]uint32

// LatencyBucket maps a duration to its log bucket.
func LatencyBucket(d time.Duration) uint16 {
	if d <= 0 {
		return 0
	}
	return uint16(min(int(math.Ceil(math.Log(float64(d))/latLogGamma))+1, latBuckets-1))
}

// Percentiles returns the nearest-rank p50 and p99, in ns, of the n
// counted durations (0 for n = 0) in one pass: the p-th percentile
// is the value of the bucket holding the ceil(p·n/100)-th smallest.
// n must equal the sum of the counts.
func (c *LatencyCounts) Percentiles(n int) (p50, p99 int64) {
	if n == 0 {
		return 0, 0
	}
	r50, r99 := (50*n+99)/100, (99*n+99)/100
	k, seen := 0, 0
	for ; k < latBuckets-1 && seen+int(c[k]) < r50; k++ {
		seen += int(c[k])
	}
	p50 = latValues[k]
	for ; k < latBuckets-1 && seen+int(c[k]) < r99; k++ {
		seen += int(c[k])
	}
	return p50, latValues[k]
}

package obs

import (
	"slices"
	"testing"
	"time"
)

// withinAlpha reports whether a percentile read from the counts is
// within α·exact + ½ ns of the exact value, in integers for α = 1%.
func withinAlpha(got, exact int64) bool {
	d := got - exact
	return 200*max(d, -d) <= 2*exact+100
}

// TestLatBucketRange pins the ends of the bucket array: durations
// ≤ 0 report 0, 1 ns reports 1 ns, 24 h still lands in a bucket
// within 1% of it, and anything longer clamps into that top bucket.
func TestLatBucketRange(t *testing.T) {
	for _, d := range []time.Duration{-time.Second, 0} {
		if k := LatencyBucket(d); k != 0 || latValues[k] != 0 {
			t.Fatalf("LatencyBucket(%v) = %d reporting %d, want bucket 0 reporting 0", d, k, latValues[k])
		}
	}
	if v := latValues[LatencyBucket(1)]; v != 1 {
		t.Fatalf("1ns reports %d", v)
	}
	day := 24 * time.Hour
	if k := LatencyBucket(day); k != latBuckets-1 || !withinAlpha(latValues[k], day.Nanoseconds()) {
		t.Fatalf("24h lands in bucket %d of %d reporting %d", k, latBuckets, latValues[k])
	}
	if k := LatencyBucket(30 * day); k != latBuckets-1 {
		t.Fatalf("30 days land in bucket %d, want the top one", k)
	}
}

// TestPercentilesNearestRank holds Percentiles to nearest rank (the
// p-th percentile of n samples is the ceil(p·n/100)-th smallest): no,
// one and two samples, 1..100 ms scrambled, heavy ties, durations
// ≤ 0, and durations past the top bucket, which all report its value.
func TestPercentilesNearestRank(t *testing.T) {
	ms := time.Millisecond
	var hundred []time.Duration
	for i := range 100 {
		hundred = append(hundred, time.Duration(1+(i*37)%100)*ms)
	}
	ties := append(slices.Repeat([]time.Duration{3 * ms}, 60), slices.Repeat([]time.Duration{8 * ms}, 40)...)
	top := time.Duration(latValues[latBuckets-1])
	for _, c := range []struct {
		name     string
		samples  []time.Duration
		p50, p99 time.Duration
	}{
		{"none", nil, 0, 0},
		{"one", []time.Duration{7 * ms}, 7 * ms, 7 * ms},
		{"two", []time.Duration{9 * ms, 2 * ms}, 2 * ms, 9 * ms},
		{"hundred", hundred, 50 * ms, 99 * ms},
		{"ties", ties, 3 * ms, 8 * ms},
		{"not-positive", []time.Duration{0, -ms, 5 * ms}, 0, 5 * ms},
		{"top-bucket", []time.Duration{time.Hour, 48 * time.Hour, 30 * 24 * time.Hour}, top, top},
	} {
		var counts LatencyCounts
		for _, d := range c.samples {
			counts[LatencyBucket(d)]++
		}
		if p50, p99 := counts.Percentiles(len(c.samples)); !withinAlpha(p50, int64(c.p50)) || !withinAlpha(p99, int64(c.p99)) {
			t.Errorf("%s: p50 %d p99 %d, want %v and %v within 1%%", c.name, p50, p99, c.p50, c.p99)
		}
	}
}

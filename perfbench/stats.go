package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a percentile must have beyond it
// before it is reported without a warning: a p99 over fewer than
// 1000 samples rests on fewer than ten observations.
const minTail = 10

// dist is a sample set of one timing, kept in the unit it is
// reported in.
type dist struct {
	vals []float64
}

func (d *dist) add(v float64) { d.vals = append(d.vals, v) }

// addDur adds a duration in the given unit (time.Millisecond for ms).
func (d *dist) addDur(v, unit time.Duration) { d.add(float64(v) / float64(unit)) }

func (d *dist) merge(o *dist) { d.vals = append(d.vals, o.vals...) }

// summary is one percentile of a dist with its sample accounting.
type summary struct {
	value float64
	n     int
	// beyond is the number of samples strictly above the percentile's
	// rank; thin is true when fewer than minTail remain there.
	beyond int
	thin   bool
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100)
// of the samples: the smallest value with at least p% of the samples
// at or below it. An empty set yields n = 0 and value 0.
func (d *dist) percentile(p float64) summary {
	n := len(d.vals)
	if n == 0 {
		return summary{thin: true}
	}
	sorted := append([]float64(nil), d.vals...)
	sort.Float64s(sorted)
	rank := min(max(int(math.Ceil(p*float64(n)/100)), 1), n)
	beyond := n - rank
	return summary{value: sorted[rank-1], n: n, beyond: beyond, thin: beyond < minTail}
}

// note is the sample accounting printed beside the value.
func (s summary) note() string {
	note := fmt.Sprintf("n=%d, %d beyond", s.n, s.beyond)
	if s.thin {
		note += fmt.Sprintf(" [fewer than %d beyond: unreliable]", minTail)
	}
	return note
}

// pcts is the p50 and p99 of a dist, all a report keeps of it.
type pcts struct{ p50, p99 summary }

func (d *dist) pcts() pcts { return pcts{d.percentile(50), d.percentile(99)} }

// median of a small sample set (setup repetitions, probe reps).
func median(vals []float64) float64 {
	d := dist{vals: vals}
	return d.percentile(50).value
}

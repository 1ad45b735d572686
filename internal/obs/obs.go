// Package obs is the dependency-free metrics core of the service:
// atomic counters, gauges and fixed-bucket histograms with label
// support, registered in a Registry that renders the Prometheus text
// exposition format (GET /v1/metrics) and a structured Snapshot for
// tests and in-process consumers, plus the log-bucket latency counts
// (quantile.go) that every percentile the repository publishes is
// read from. No quantile is computed from the fixed buckets.
//
// Design constraints, in order:
//
//   - Zero dependencies. The whole package is stdlib (sync/atomic,
//     sort, fmt), so internal/simd can expose a Collector hook and
//     every layer can instrument itself without pulling a metrics
//     client into the module.
//   - Hot-path writes are one atomic op. Counter.Add and
//     Gauge.Set/Add are single atomic instructions; Histogram.Observe
//     is one atomic add and one compare-and-swap loop on the sum,
//     plus a bucket search over a handful of upper bounds. Label
//     resolution through With is one read-locked map lookup that
//     allocates nothing once the series exists, so call sites resolve
//     their series per use.
//   - Reads never block writes. Exposition and Snapshot take the
//     registry read lock and load atomics; they never quiesce
//     writers, so a scrape cannot stall the scheduler.
//
// Cheap existing counters (pool builds, watch drops, queue depth)
// bridge in through CollectFunc: a callback sampled at scrape time,
// costing the instrumented code nothing between scrapes.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Metric types as they appear in # TYPE lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// DefBuckets are the default latency buckets (seconds): 100 µs to
// 10 s, a decade per ~3 buckets — wide enough for queue waits and
// request latencies, fine enough at the low end where the service
// actually operates.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // registration order; exposition sorts by name
}

// family is one named metric family: a type, a label schema and the
// labeled series (or a collect callback).
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram upper bounds (exclusive of +Inf)

	mu     sync.RWMutex
	series map[string]*series
	sorder []string

	collect func() []Sample // CollectFunc families sample lazily
}

// series is one labeled instance of a family.
type series struct {
	labelValues []string
	val         atomic.Int64 // counter/gauge value
	counts      []atomic.Uint64
	sum         atomic.Uint64 // float64 bits
}

// Sample is one sampled value of a CollectFunc family.
type Sample struct {
	// LabelValues correspond positionally to the family's label names.
	LabelValues []string
	Value       float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register validates and installs a family; duplicate or malformed
// registrations panic — metric registration is program wiring, not
// input handling.
func (r *Registry) register(f *family) *family {
	if !nameRe.MatchString(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !labelRe.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	r.families[f.name] = f
	r.order = append(r.order, f.name)
	return f
}

// Counter registers a counter family. With no labels the returned
// vec's With() yields the single series.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	f := r.register(&family{
		name: name, help: help, typ: TypeCounter,
		labels: labels, series: make(map[string]*series),
	})
	return &CounterVec{f}
}

// Gauge registers a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	f := r.register(&family{
		name: name, help: help, typ: TypeGauge,
		labels: labels, series: make(map[string]*series),
	})
	return &GaugeVec{f}
}

// Histogram registers a fixed-bucket histogram family. buckets are
// upper bounds in ascending order (the +Inf bucket is implicit); nil
// selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not ascending at %v", name, buckets[i]))
		}
	}
	f := r.register(&family{
		name: name, help: help, typ: TypeHistogram,
		labels: labels, buckets: buckets, series: make(map[string]*series),
	})
	return &HistogramVec{f}
}

// CollectFunc registers a family whose samples are produced by fn at
// scrape time — the bridge for counters and gauges another subsystem
// already maintains (pool builds, queue depth, watch drops). typ must
// be TypeCounter or TypeGauge.
func (r *Registry) CollectFunc(name, help, typ string, labels []string, fn func() []Sample) {
	if typ != TypeCounter && typ != TypeGauge {
		panic(fmt.Sprintf("obs: CollectFunc %s needs type counter or gauge, got %q", name, typ))
	}
	if fn == nil {
		panic(fmt.Sprintf("obs: CollectFunc %s needs a callback", name))
	}
	r.register(&family{name: name, help: help, typ: typ, labels: labels, collect: fn})
}

// appendSeriesKey appends the series map key of a label-value tuple
// to dst: the values joined by \xff, which cannot appear in label
// values that differ only by joining, so the key is injective for
// practical values. The exposition sorts series by the same key.
func appendSeriesKey(dst []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			dst = append(dst, '\xff')
		}
		dst = append(dst, v...)
	}
	return dst
}

// with resolves (creating on first use) the series of a label-value
// tuple. The key is built in a stack buffer, and a map index by
// string(key) does not copy it, so resolving an existing series
// allocates nothing.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var buf [128]byte
	key := appendSeriesKey(buf[:0], values)
	f.mu.RLock()
	s := f.series[string(key)]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[string(key)]; s != nil {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	if f.typ == TypeHistogram {
		s.counts = make([]atomic.Uint64, len(f.buckets)+1)
	}
	k := string(key)
	f.series[k] = s
	f.sorder = append(f.sorder, k)
	return s
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// Counter is one monotonically increasing series.
type Counter struct{ s *series }

// With resolves the series of a label-value tuple (order matches the
// registered label names).
func (v *CounterVec) With(labelValues ...string) Counter {
	return Counter{v.f.with(labelValues)}
}

// Inc adds 1.
func (c Counter) Inc() { c.s.val.Add(1) }

// Add adds delta; negative deltas panic (counters only go up).
func (c Counter) Add(delta int64) {
	if delta < 0 {
		panic("obs: counter Add with negative delta")
	}
	c.s.val.Add(delta)
}

// Value returns the current count.
func (c Counter) Value() int64 { return c.s.val.Load() }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// Gauge is one series that can go up and down.
type Gauge struct{ s *series }

// With resolves the series of a label-value tuple.
func (v *GaugeVec) With(labelValues ...string) Gauge {
	return Gauge{v.f.with(labelValues)}
}

// Set stores the value.
func (g Gauge) Set(v int64) { g.s.val.Store(v) }

// Add adds delta (may be negative).
func (g Gauge) Add(delta int64) { g.s.val.Add(delta) }

// Value returns the current value.
func (g Gauge) Value() int64 { return g.s.val.Load() }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// Histogram is one series of bucketed observations.
type Histogram struct {
	s       *series
	buckets []float64
}

// With resolves the series of a label-value tuple.
func (v *HistogramVec) With(labelValues ...string) Histogram {
	return Histogram{v.f.with(labelValues), v.f.buckets}
}

// Observe records one value: the owning bucket and every wider one
// are counted at exposition (buckets are stored sparse, cumulated at
// render). There is no separate count: the count is the sum of the
// buckets, so a snapshot's _count always equals its +Inf bucket. The
// sum advances after the bucket, so a scrape racing an observation
// may show a _sum that trails it, which the exposition format allows.
func (h Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first upper bound >= v
	h.s.counts[i].Add(1)
	for {
		old := h.s.sum.Load()
		if h.s.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations: the sum of the buckets.
func (h Histogram) Count() uint64 {
	var n uint64
	for i := range h.s.counts {
		n += h.s.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h Histogram) Sum() float64 { return math.Float64frombits(h.s.sum.Load()) }

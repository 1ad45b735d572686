package obs

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.", "kind").With("star")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative Add did not panic")
			}
		}()
		c.Add(-1)
	}()
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "Queue depth.").With()
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge value = %d, want 4", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{0.1, 0.5, 1}).With()
	for _, v := range []float64{0.05, 0.05, 0.3, 0.7, 2.5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-3.6) > 1e-12 {
		t.Fatalf("sum = %v, want 3.6", got)
	}
	// Each observation lands in the first bucket whose upper bound
	// holds it; 2.5 lands in +Inf. Quantiles are the scraper's to
	// compute from these counts.
	s := r.Snapshot()[0].Series[0]
	if !slices.Equal(s.Buckets, []uint64{2, 1, 1, 1}) {
		t.Fatalf("buckets = %v, want [2 1 1 1]", s.Buckets)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", nil).With()
	h.Observe(0.003)
	if got := h.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	s := r.Snapshot()[0].Series[0]
	if !slices.Equal(s.Uppers, DefBuckets) || s.Buckets[5] != 1 {
		t.Fatalf("0.003 counted in %v over %v, want the (0.0025, 0.005] bucket", s.Buckets, s.Uppers)
	}
}

func TestLabelSeriesIndependent(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("reqs", "Requests.", "route", "code")
	v.With("/v1/jobs", "200").Add(3)
	v.With("/v1/jobs", "429").Inc()
	if a, b := v.With("/v1/jobs", "200").Value(), v.With("/v1/jobs", "429").Value(); a != 3 || b != 1 {
		t.Fatalf("series values = %d, %d; want 3, 1", a, b)
	}
}

// TestWithAllocatesNothingOnHit: resolving a series that exists is a
// map lookup on a key built in a stack buffer, at one label and at
// three, so call sites need no handle cache.
func TestWithAllocatesNothingOnHit(t *testing.T) {
	r := NewRegistry()
	one := r.Counter("one_total", "One label.", "tenant")
	three := r.Counter("three_total", "Three labels.", "status", "kind", "tenant")
	one.With("ci").Inc()
	three.With("done", "sweep", "ci").Inc()
	if n := testing.AllocsPerRun(100, func() { one.With("ci").Inc() }); n != 0 {
		t.Errorf("With on one label allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { three.With("done", "sweep", "ci").Inc() }); n != 0 {
		t.Errorf("With on three labels allocates %v per call, want 0", n)
	}
}

func TestRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"bad name", func(r *Registry) { r.Counter("9bad", "x") }},
		{"bad label", func(r *Registry) { r.Counter("ok", "x", "9bad") }},
		{"duplicate", func(r *Registry) { r.Counter("dup", "x"); r.Gauge("dup", "x") }},
		{"buckets not ascending", func(r *Registry) { r.Histogram("h", "x", []float64{1, 1}) }},
		{"collect bad type", func(r *Registry) { r.CollectFunc("c", "x", TypeHistogram, nil, func() []Sample { return nil }) }},
		{"collect nil fn", func(r *Registry) { r.CollectFunc("c", "x", TypeGauge, nil, nil) }},
		{"wrong label count", func(r *Registry) { r.Counter("c", "x", "a").With() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{1, 2}).With()
	c := r.Counter("n", "N.", "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.5)
				c.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
	if got := h.Sum(); math.Abs(got-4000) > 1e-9 {
		t.Fatalf("sum = %v, want 4000", got)
	}
	if got := c.With("a").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

// TestHistogramScrapeConsistentUnderObserve takes snapshots while
// two goroutines observe: every snapshot's Count must equal the sum
// of its buckets, and every 20th exposition must validate, whose
// _count must equal its +Inf bucket.
func TestHistogramScrapeConsistentUnderObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{1, 2}).With()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(i % 3))
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	var text strings.Builder
	for i := 0; i < 20000; i++ {
		s := r.Snapshot()[0].Series[0]
		var sum uint64
		for _, c := range s.Buckets {
			sum += c
		}
		if s.Count != sum {
			t.Fatalf("snapshot %d: Count %d != bucket sum %d", i, s.Count, sum)
		}
		if i%20 == 0 {
			text.Reset()
			if err := r.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			if err := Validate(text.String()); err != nil {
				t.Fatalf("exposition %d: %v", i/20, err)
			}
		}
	}
}

func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "Total b.", "kind").With("star").Add(3)
	r.Gauge("a_depth", "Depth.").With().Set(2)
	h := r.Histogram("c_seconds", "Latency.", []float64{0.5, 1}).With()
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(5)
	r.CollectFunc("d_info", "Info.", TypeGauge, []string{"v"}, func() []Sample {
		return []Sample{{LabelValues: []string{`q"\x` + "\n"}, Value: 1}}
	})

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_depth Depth.
# TYPE a_depth gauge
a_depth 2
# HELP b_total Total b.
# TYPE b_total counter
b_total{kind="star"} 3
# HELP c_seconds Latency.
# TYPE c_seconds histogram
c_seconds_bucket{le="0.5"} 1
c_seconds_bucket{le="1"} 2
c_seconds_bucket{le="+Inf"} 3
c_seconds_sum 6
c_seconds_count 3
# HELP d_info Info.
# TYPE d_info gauge
d_info{v="q\"\\x\n"} 1
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The emitted text must satisfy our own validator.
	if err := Validate(b.String()); err != nil {
		t.Fatalf("Validate(WriteText output): %v", err)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total", "N.").With().Add(2)
	h := r.Histogram("h_seconds", "H.", []float64{1}).With()
	h.Observe(0.5)
	h.Observe(3)
	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("snapshot families = %d, want 2", len(snaps))
	}
	if snaps[0].Name != "h_seconds" || snaps[1].Name != "n_total" {
		t.Fatalf("snapshot order = %s, %s; want name-sorted", snaps[0].Name, snaps[1].Name)
	}
	hs := snaps[0].Series[0]
	if hs.Count != 2 || hs.Sum != 3.5 {
		t.Fatalf("hist snapshot count=%d sum=%v, want 2, 3.5", hs.Count, hs.Sum)
	}
	if len(hs.Buckets) != 2 || hs.Buckets[0] != 1 || hs.Buckets[1] != 1 {
		t.Fatalf("hist buckets = %v, want [1 1]", hs.Buckets)
	}
	if snaps[1].Series[0].Value != 2 {
		t.Fatalf("counter snapshot = %v, want 2", snaps[1].Series[0].Value)
	}
}

func TestCollectFuncLabelMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CollectFunc("bad", "x", TypeGauge, []string{"a"}, func() []Sample {
		return []Sample{{Value: 1}} // 0 label values, want 1
	})
	defer func() {
		if recover() == nil {
			t.Fatal("snapshot of mismatched CollectFunc did not panic")
		}
	}()
	r.Snapshot()
}

func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "Reqs.", "route", "code").With("/v1/jobs", "200").Add(7)
	r.Gauge("depth", "Depth.").With().Set(3)
	h := r.Histogram("wait_seconds", "Wait.", []float64{0.1, 1}, "kind").With("star")
	h.Observe(0.05)
	h.Observe(0.5)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("reqs_total", map[string]string{"route": "/v1/jobs", "code": "200"}); !ok || v != 7 {
		t.Fatalf("Value(reqs_total) = %v, %v; want 7, true", v, ok)
	}
	if v, ok := sc.Value("depth", nil); !ok || v != 3 {
		t.Fatalf("Value(depth) = %v, %v; want 3, true", v, ok)
	}
	if _, ok := sc.Value("missing", nil); ok {
		t.Fatal("Value(missing) matched")
	}
	if _, ok := sc.Value("reqs_total", map[string]string{"route": "/other"}); ok {
		t.Fatal("Value with wrong label matched")
	}
	if sc.Types["wait_seconds"] != TypeHistogram {
		t.Fatalf("type = %q, want histogram", sc.Types["wait_seconds"])
	}
	if sc.Help["depth"] != "Depth." {
		t.Fatalf("help = %q, want Depth.", sc.Help["depth"])
	}
	if v, ok := sc.Value("wait_seconds_bucket", map[string]string{"kind": "star", "le": "1"}); !ok || v != 2 {
		t.Fatalf("Value(wait_seconds_bucket le=1) = %v, %v; want the cumulative 2, true", v, ok)
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"no_value_here",
		`x{unterminated="1" 2`,
		`x{9bad="1"} 2`,
		`x{a=unquoted} 2`,
		`x{a="unterminated} 2`,
		`x{nopair} 2`,
		"x notanumber",
		"x 1 2 3",
		"# TYPE x wat",
		"# TYPE x",
		"# HELP",
		"# TYPE x counter\n# TYPE x counter",
	}
	for _, text := range bad {
		if _, err := ParseText(text); err == nil {
			t.Errorf("ParseText(%q) = nil error, want error", text)
		}
	}
	// Benign lines parse fine.
	ok := "# a bare comment\n\n# HELP x\n# TYPE x counter\nx 1\nx{le=\"+Inf\"} 2\nnan_val NaN\nneg_inf -Inf\n# TYPE nan_val gauge\n# TYPE neg_inf gauge\n"
	if _, err := ParseText(ok); err != nil {
		t.Fatalf("ParseText(ok) = %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"undeclared", "x 1\n"},
		{"bare histogram sample", "# TYPE h histogram\nh 1\n"},
		{"missing inf bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n"},
		{"not cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
		{"not ascending", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 2\n"},
		{"bucket no le", "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n"},
		{"bad le", "# TYPE h histogram\nh_bucket{le=\"wat\"} 1\nh_sum 1\nh_count 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Validate(tc.text); err == nil {
				t.Fatalf("Validate(%q) = nil, want error", tc.text)
			}
		})
	}
	good := "# TYPE c counter\nc 1\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 2.5\nh_count 3\n"
	if err := Validate(good); err != nil {
		t.Fatalf("Validate(good) = %v", err)
	}
}

func TestCollectFuncExposition(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.CollectFunc("pool_builds_total", "Builds.", TypeCounter, []string{"shape"}, func() []Sample {
		n++
		return []Sample{{LabelValues: []string{"star/4"}, Value: float64(n)}}
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `pool_builds_total{shape="star/4"} 1`) {
		t.Fatalf("exposition missing collected sample:\n%s", b.String())
	}
	// Collected again on the next scrape, not cached.
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `pool_builds_total{shape="star/4"} 2`) {
		t.Fatalf("second scrape not re-collected:\n%s", b.String())
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:           "0",
		2:           "2",
		0.5:         "0.5",
		math.Inf(1): "+Inf",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}

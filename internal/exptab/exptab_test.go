package exptab

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := New("Title", "a", "bee", "c")
	tab.Add(1, "xx", 3.14159)
	tab.Add("longer-cell", 2, 10)
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Fatalf("title missing: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "a") || !strings.Contains(lines[1], "bee") {
		t.Fatalf("header wrong: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Fatalf("rule missing: %q", lines[2])
	}
	// Column alignment: every data line should have the same offset
	// for column 2 ("bee").
	col := strings.Index(lines[1], "bee")
	if !strings.Contains(lines[3][col:], "xx") {
		t.Fatalf("column misaligned:\n%s", out)
	}
	// Floats use %.3g.
	if !strings.Contains(out, "3.14") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tab := New("", "x")
	tab.Add(1)
	var buf bytes.Buffer
	tab.Fprint(&buf)
	if strings.HasPrefix(buf.String(), "\n") {
		t.Fatalf("empty title printed a blank line")
	}
	if !strings.HasPrefix(buf.String(), "x") {
		t.Fatalf("header not first: %q", buf.String())
	}
}

func TestTableWideCellGrowsColumn(t *testing.T) {
	tab := New("t", "h")
	tab.Add("wider-than-header")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "---") && len(line) < len("wider-than-header") {
			t.Fatalf("rule too short: %q", line)
		}
	}
}

// TestBenchRecordWriteJSON round-trips a record through the one
// record writer: the header is stamped, nested fields survive, and
// with BENCH_DIR unset nothing is written.
func TestBenchRecordWriteJSON(t *testing.T) {
	type point struct {
		Procs   int     `json:"procs"`
		Speedup float64 `json:"speedup_vs_sequential"`
	}
	type record struct {
		Header
		N       int      `json:"n"`
		Samples []int64  `json:"samples_ns"`
		Sweep   Interval `json:"sweep_ns"`
		Curve   []point  `json:"replay_scaling"`
	}
	rec := record{
		Header:  Header{Benchmark: "engine-test"},
		N:       8,
		Samples: []int64{300, 100, 200},
		Sweep:   NewInterval([]int64{300, 100, 200}),
		Curve:   []point{{1, 1.0}, {2, 1.8}},
	}

	t.Setenv("BENCH_DIR", "")
	if path, err := WriteRecord("BENCH_engine.json", &rec); err != nil || path != "" {
		t.Fatalf("BENCH_DIR unset: wrote %q, err %v", path, err)
	}
	if rec.Timestamp != "" {
		t.Fatalf("BENCH_DIR unset: header stamped anyway: %+v", rec.Header)
	}

	dir := t.TempDir()
	t.Setenv("BENCH_DIR", dir)
	path, err := WriteRecord("BENCH_engine.json", &rec)
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, "BENCH_engine.json") {
		t.Fatalf("record written to %q", path)
	}
	if rec.Timestamp == "" || rec.GoMaxProcs != runtime.GOMAXPROCS(0) || rec.HostCPUs != runtime.NumCPU() {
		t.Fatalf("header not stamped: %+v", rec.Header)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Errorf("round trip: %+v != %+v", back, rec)
	}
	for _, key := range []string{`"benchmark"`, `"timestamp"`, `"gomaxprocs"`, `"host_cpus"`, `"min_ns"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("record lacks %s:\n%s", key, data)
		}
	}
	if rec.Sweep != (Interval{MinNs: 100, MedianNs: 200, MaxNs: 300}) {
		t.Errorf("interval %+v", rec.Sweep)
	}
}

// TestRegressionAgainst pins the interval regression rule: only a
// fresh interval wholly below RegressionMargin × the baseline's
// fails, and a baseline without an interval arms nothing.
func TestRegressionAgainst(t *testing.T) {
	baseline := ThroughputInterval{Min: 100, Median: 700, Max: 800}
	cases := []struct {
		name          string
		fresh, base   ThroughputInterval
		regressed, ok bool // ok = armed
	}{
		{"same interval", baseline, baseline, false, true},
		{"overlapping, slower", ThroughputInterval{Min: 60, Median: 90, Max: 120}, baseline, false, true},
		{"below baseline but above the margin", ThroughputInterval{Min: 40, Median: 45, Max: 50}, baseline, false, true},
		{"wholly below the margin", ThroughputInterval{Min: 30, Median: 40, Max: 49.9}, baseline, true, true},
		{"faster", ThroughputInterval{Min: 900, Median: 950, Max: 990}, baseline, false, true},
		{"baseline without an interval", ThroughputInterval{Min: 1, Median: 1, Max: 1}, ThroughputInterval{}, false, false},
	}
	for _, c := range cases {
		regressed, armed, verdict := c.fresh.RegressionAgainst(c.base)
		if regressed != c.regressed || armed != c.ok || verdict == "" {
			t.Errorf("%s: regressed %t armed %t (%q), want regressed %t armed %t",
				c.name, regressed, armed, verdict, c.regressed, c.ok)
		}
	}
	// Durations convert to rates with the ends swapped: the slowest
	// repetition bounds the rate interval from below.
	if got := NewInterval([]int64{4e6, 1e6, 2e6}).Throughput(); got != (ThroughputInterval{Min: 250, Median: 500, Max: 1000}) {
		t.Errorf("throughput interval %+v", got)
	}
}

// TestGate: a missed gate is an error only when BENCH_DIR is set.
func TestGate(t *testing.T) {
	var buf bytes.Buffer
	t.Setenv("BENCH_DIR", "")
	if err := Gate(&buf, false, "speedup %.1fx below %.1fx", 1.2, 1.5); err != nil {
		t.Fatalf("unset BENCH_DIR: %v", err)
	}
	if !strings.Contains(buf.String(), "WARNING: speedup 1.2x below 1.5x") {
		t.Fatalf("no warning printed: %q", buf.String())
	}
	t.Setenv("BENCH_DIR", t.TempDir())
	buf.Reset()
	if err := Gate(&buf, false, "speedup %.1fx below %.1fx", 1.2, 1.5); err == nil || err.Error() != "speedup 1.2x below 1.5x" {
		t.Fatalf("BENCH_DIR set: err %v", err)
	}
	if err := Gate(&buf, true, "never"); err != nil || buf.Len() != 0 {
		t.Fatalf("passing gate: err %v, output %q", err, buf.String())
	}
}

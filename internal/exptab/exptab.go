// Package exptab renders the fixed-width tables produced by the
// experiment harness (cmd/experiments), holds the experiment registry
// type, and carries what every BENCH_*.json record shares: its
// header, its writer, its gate switch and the interval regression
// rule. Output format is stable so the docs can quote it verbatim.
package exptab

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Table is a simple fixed-width text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// New creates a table with a title and column headers.
func New(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row; cells are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table to w.
func (t *Table) Fprint(w io.Writer) {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", width[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	total := len(width)*2 - 2
	for _, wd := range width {
		total += wd
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, r := range t.Rows {
		line(r)
	}
}

// StepSummary appends a Markdown fragment to the file named by
// $GITHUB_STEP_SUMMARY — GitHub Actions renders it on the job's
// summary page, so each bench job surfaces its key numbers without
// anyone digging through logs. Outside Actions (the variable unset)
// it is a no-op; write errors are reported but never fail the
// experiment, since the summary is advisory next to the gates.
func StepSummary(format string, args ...any) {
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "exptab: opening step summary: %v\n", err)
		return
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, format+"\n", args...); err != nil {
		fmt.Fprintf(os.Stderr, "exptab: writing step summary: %v\n", err)
	}
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID   string // short key used on the command line, e.g. "fig7"
	Name string // human title, e.g. "Figure 7: mapping of V(D4) into V(S4)"
	Run  func(w io.Writer) error
}

// BenchDir is the directory named by $BENCH_DIR, the one bench
// switch. Set, every bench writes its record there and then enforces
// its gates; unset (plain `go test ./...`, the experiment suite),
// no record is written and a missed gate only prints a warning.
func BenchDir() string { return os.Getenv("BENCH_DIR") }

// Header is the head every BENCH_*.json record shares. WriteRecord
// stamps all of it but Benchmark, which names the record's schema.
type Header struct {
	Benchmark  string `json:"benchmark"`
	Timestamp  string `json:"timestamp"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// HostCPUs qualifies every timing: GOMAXPROCS above it only
	// time-slices, which is why the multi-core gates skip themselves
	// on hosts with fewer than 4 CPUs.
	HostCPUs int `json:"host_cpus"`
}

func (h *Header) stamp() {
	h.Timestamp = time.Now().UTC().Format(time.RFC3339)
	h.GoMaxProcs = runtime.GOMAXPROCS(0)
	h.HostCPUs = runtime.NumCPU()
}

// Record is a bench record: a struct embedding Header.
type Record interface{ stamp() }

// WriteRecord stamps rec's header and writes rec as indented JSON to
// the file name under BenchDir, returning the path written. With
// BENCH_DIR unset it writes nothing and returns "".
func WriteRecord(name string, rec Record) (string, error) {
	dir := BenchDir()
	if dir == "" {
		return "", nil
	}
	rec.stamp()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// Gate checks one bench threshold. A miss is returned as an error
// when BENCH_DIR is set; unset, it is printed to w as a warning and
// Gate returns nil.
func Gate(w io.Writer, ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	msg := fmt.Sprintf(format, args...)
	if BenchDir() != "" {
		return errors.New(msg)
	}
	fmt.Fprintf(w, "WARNING: %s (gate not enforced: BENCH_DIR unset)\n", msg)
	return nil
}

// Interval summarizes repeated duration samples.
type Interval struct {
	MinNs    int64 `json:"min_ns"`
	MedianNs int64 `json:"median_ns"`
	MaxNs    int64 `json:"max_ns"`
}

// NewInterval folds samples (nanoseconds) into an interval.
func NewInterval(samples []int64) Interval {
	if len(samples) == 0 {
		return Interval{}
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return Interval{
		MinNs:    sorted[0],
		MedianNs: sorted[len(sorted)/2],
		MaxNs:    sorted[len(sorted)-1],
	}
}

// Throughput converts a duration interval into per-second rates: the
// fast end of the time interval is the high end of the rate interval.
func (iv Interval) Throughput() ThroughputInterval {
	rate := func(ns int64) float64 {
		if ns <= 0 {
			return 0
		}
		return 1e9 / float64(ns)
	}
	return ThroughputInterval{
		Min:    rate(iv.MaxNs),
		Median: rate(iv.MedianNs),
		Max:    rate(iv.MinNs),
	}
}

// ThroughputInterval is an interval of per-second rates (higher is
// better).
type ThroughputInterval struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

// RegressionMargin scales the baseline interval before the regression
// rule compares against it, absorbing host-speed spread between the
// machine that recorded the baseline and the one checking it.
const RegressionMargin = 0.5

// RegressionAgainst applies the interval regression rule. Comparing
// point estimates of noisy measurements misleads (Al Mohamad, Goeman
// and van Zwet, arXiv:1812.05507), so a regression is declared only
// when the fresh interval lies wholly below RegressionMargin × the
// baseline's: even the fresh run's fastest repetition is slower than
// the margin times the baseline's slowest. Overlapping intervals
// never gate. armed is false when the baseline carries no interval.
func (iv ThroughputInterval) RegressionAgainst(baseline ThroughputInterval) (regressed, armed bool, verdict string) {
	if baseline.Min <= 0 {
		return false, false, "baseline has no interval: regression gate not armed"
	}
	floor := baseline.Min * RegressionMargin
	if iv.Max < floor {
		return true, true, fmt.Sprintf("new interval [%.1f, %.1f]/s wholly below %.2f × baseline min %.1f/s",
			iv.Min, iv.Max, RegressionMargin, baseline.Min)
	}
	return false, true, fmt.Sprintf("new interval [%.1f, %.1f]/s overlaps %.2f × baseline [%.1f, %.1f]/s",
		iv.Min, iv.Max, RegressionMargin, baseline.Min, baseline.Max)
}

package main

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"starmesh/internal/serve"
	"starmesh/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	var d dist
	for v := 100; v >= 1; v-- { // unsorted input
		d.add(float64(v))
	}
	for _, c := range []struct {
		p           float64
		value       float64
		beyond      int
		thin        bool
		description string
	}{
		{50, 50, 50, false, "median"},
		{99, 99, 1, true, "p99 of 100 samples has one beyond"},
		{100, 100, 0, true, "maximum"},
		{1, 1, 99, false, "minimum rank"},
	} {
		s := d.percentile(c.p)
		if s.value != c.value || s.beyond != c.beyond || s.thin != c.thin || s.n != 100 {
			t.Errorf("%s: p%v = %+v, want value %v beyond %d thin %t", c.description, c.p, s, c.value, c.beyond, c.thin)
		}
	}
	if s := (&dist{}).percentile(50); s.n != 0 || !s.thin {
		t.Errorf("empty dist: %+v, want n=0 and thin", s)
	}
}

// TestP99SampleCountRule pins where a p99 stops being flagged: it
// needs ten samples beyond it, so 1000 samples.
func TestP99SampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		thin bool
	}{{999, true}, {1000, false}, {5000, false}} {
		var d dist
		for i := range c.n {
			d.add(float64(i))
		}
		s := d.percentile(99)
		if s.thin != c.thin || s.beyond < 0 {
			t.Errorf("n=%d: %+v, want thin=%t", c.n, s, c.thin)
		}
		if !s.thin && s.beyond < minTail {
			t.Errorf("n=%d: not flagged with only %d beyond", c.n, s.beyond)
		}
	}
}

// TestEndToEndCoversWholePhase checks that a phase whose second half
// is stalled reports the whole phase: its rate and p99 both show the
// stall.
func TestEndToEndCoversWholePhase(t *testing.T) {
	w := workloadDef{drive: func(_ context.Context, l *load) []*tally {
		fast, slow := &tally{start: l.start}, &tally{start: l.start}
		for i := range 100 {
			fast.done++
			fast.jobLat.add(1)
			if i < 10 {
				slow.done++
				slow.jobLat.add(50)
			}
		}
		slow.perWin = []int{0, 10}
		fast.perWin = []int{100}
		return []*tally{fast, slow}
	}}
	p := drivePhase(context.Background(), &load{}, w, 2*window)
	rows := endToEnd(p, 1)
	got := map[string]float64{}
	for _, r := range rows {
		got[r.name] = r.value
	}
	if rate := 110 / p.elapsed.Seconds(); got["jobs_per_s"] != rate {
		t.Errorf("jobs_per_s = %v, want all 110 jobs over the phase, %v", got["jobs_per_s"], rate)
	}
	if got["job_p50_ms"] != 1 || got["job_p99_ms"] != 50 {
		t.Errorf("job p50/p99 = %v/%v, want 1/50: the slow jobs count", got["job_p50_ms"], got["job_p99_ms"])
	}
	if !slices.Equal(p.perWin, []int{100, 10}) {
		t.Errorf("per-window counts %v, want [100 10]", p.perWin)
	}
}

func TestReferenceCheck(t *testing.T) {
	specs := []serve.JobSpec{{Kind: workload.KindSweep, N: 4}, {Kind: workload.KindSort, N: 4, Seed: 7}}
	refs, err := references(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	job := func(r reference) serve.Job {
		return serve.Job{ID: "job-1", Spec: specs[0], Status: serve.StatusDone,
			Result: &workload.ScenarioResult{UnitRoutes: r.unitRoutes, Conflicts: r.conflicts, OK: r.ok}}
	}
	if err := refs[0].check(job(refs[0])); err != nil {
		t.Errorf("matching result rejected: %v", err)
	}
	bad := refs[0]
	bad.unitRoutes++
	if err := bad.check(job(refs[0])); err == nil {
		t.Error("a corrupted reference passed the parity check")
	}
	if err := refs[0].check(serve.Job{ID: "job-2", Status: serve.StatusFailed, Error: "boom"}); err == nil {
		t.Error("a failed job passed the parity check")
	}
}

// TestCorruptedReferenceFailsRun drives the service with one
// reference corrupted: the jobs of that spec must count as failed,
// and the run as incorrect.
func TestCorruptedReferenceFailsRun(t *testing.T) {
	w, err := workloadByName("tiny-mixed")
	if err != nil {
		t.Fatal(err)
	}
	inp := inputs{specs: tinySpecs(workload.NewRand(1))[:4]}
	if inp.refs, err = references(inp.specs, nil); err != nil {
		t.Fatal(err)
	}
	inp.refs[2].conflicts++
	in, err := startInstance(serve.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := in.stop(); err != nil {
			t.Error(err)
		}
	}()
	first, err := in.svc.Submit(inp.specs[0])
	if err != nil {
		t.Fatal(err)
	}
	in.last = first.ID
	p := runPhase(context.Background(), in, w, inp, 300*time.Millisecond, false)
	if p.failed == 0 || p.done == 0 {
		t.Fatalf("done %d, failed %d: want both nonzero", p.done, p.failed)
	}
	if !strings.Contains(strings.Join(p.errs, "\n"), "diverged from its standalone run") {
		t.Errorf("errors do not name the divergence: %v", p.errs)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !slices.Equal(names, defined) {
		t.Errorf("BENCHMARK.json workloads %v, program defines %v", names, defined)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each run is correct and reports exactly the metrics
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the service and drives load")
	}
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: time.Second, trace: trace,
				scratch: t.TempDir(), setups: 1, fillJobs: 100}
			rep, err := bench(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%t: correct %t, %d of %d failed", w.name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			got := slices.Sorted(maps.Keys(rep.Metrics))
			if !slices.Equal(got, slices.Sorted(slices.Values(want))) {
				t.Errorf("%s trace=%t: metrics %v, BENCHMARK.json declares %v", w.name, trace, got, want)
			}
			if !trace {
				for _, name := range endToEnd {
					if rep.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, rep.Metrics[name].Value)
					}
				}
			}
		}
	}
}

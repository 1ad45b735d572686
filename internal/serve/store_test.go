package serve

import (
	"errors"
	"slices"
	"testing"
	"time"
)

var errAny = errors.New("boom")

// memStore opens a memory-only store or fails the test.
func memStore(t *testing.T) *store {
	t.Helper()
	st, err := openStore("", nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreEvictsOldTerminalJobsKeepsAggregates(t *testing.T) {
	oldJobs, oldLat := maxRetainedJobs, maxLatencySamples
	maxRetainedJobs, maxLatencySamples = 4, 3
	defer func() { maxRetainedJobs, maxLatencySamples = oldJobs, oldLat }()

	st := memStore(t)
	now := time.Now()
	var ids []string
	for i := 0; i < 10; i++ {
		j := st.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
		ids = append(ids, j.ID)
		if _, ok := st.claim(j.ID, now.Add(time.Millisecond), nil); !ok {
			t.Fatalf("claim %s failed", j.ID)
		}
		st.finish(j.ID, ScenarioResult{UnitRoutes: 10, OK: true}, nil,
			now.Add(time.Duration(i+2)*time.Millisecond))
	}

	stats := st.aggregate(time.Second)
	if stats.Done != 10 {
		t.Fatalf("eviction ate the cumulative done count: %+v", stats)
	}
	if stats.UnitRoutes != 100 {
		t.Fatalf("eviction ate the unit-route total: %+v", stats)
	}
	retained := 0
	for _, id := range ids {
		if _, ok := st.get(id); ok {
			retained++
		}
	}
	if retained > maxRetainedJobs {
		t.Fatalf("retained %d jobs, bound is %d", retained, maxRetainedJobs)
	}
	// The oldest jobs are the evicted ones; the newest survive.
	if _, ok := st.get(ids[0]); ok {
		t.Fatal("oldest job survived eviction")
	}
	if _, ok := st.get(ids[len(ids)-1]); !ok {
		t.Fatal("newest job was evicted")
	}
	// Listing covers only retained jobs, newest first, and never
	// panics on evicted prefixes.
	page, err := st.page(ListQuery{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := page.Jobs
	if len(jobs) != retained || jobs[0].ID != ids[len(ids)-1] {
		t.Fatalf("list wrong after eviction: %d jobs, first %s", len(jobs), jobs[0].ID)
	}
	// The latency window is bounded too.
	if n := len(st.latTotal.samples); n > maxLatencySamples {
		t.Fatalf("latency window holds %d samples, bound is %d", n, maxLatencySamples)
	}
	if stats.LatencyTotalP50Ns == 0 || stats.ThroughputJobsPerSec != 10 {
		t.Fatalf("windowed aggregates wrong: %+v", stats)
	}
}

func TestLatWindowWrapsToRecentSamples(t *testing.T) {
	oldLat := maxLatencySamples
	maxLatencySamples = 4
	defer func() { maxLatencySamples = oldLat }()
	var w latWindow
	for i := 1; i <= 10; i++ {
		w.add(time.Duration(i))
	}
	if len(w.samples) != 4 {
		t.Fatalf("window holds %d samples, want 4", len(w.samples))
	}
	sum := time.Duration(0)
	for _, d := range w.samples {
		sum += d
	}
	if sum != 7+8+9+10 {
		t.Fatalf("window holds %v, want the most recent four", w.samples)
	}
}

func TestStoreAggregatesPerKind(t *testing.T) {
	st := memStore(t)
	now := time.Now()
	finish := func(spec JobSpec, res ScenarioResult, err error) {
		j := st.add(spec, DefaultTenant, now)
		if _, ok := st.claim(j.ID, now, nil); !ok {
			t.Fatalf("claim %s failed", j.ID)
		}
		st.finish(j.ID, res, err, now.Add(time.Millisecond))
	}
	finish(JobSpec{Kind: KindSweep, N: 3}, ScenarioResult{UnitRoutes: 10, OK: true}, nil)
	finish(JobSpec{Kind: KindSweep, N: 3}, ScenarioResult{UnitRoutes: 12, Conflicts: 1, OK: false}, nil)
	finish(JobSpec{Kind: KindPermRoute, N: 4, Pattern: "random"}, ScenarioResult{UnitRoutes: 7, OK: true}, nil)
	finish(JobSpec{Kind: KindPermRoute, N: 4, Pattern: "random"}, ScenarioResult{}, errAny)

	stats := st.aggregate(time.Second)
	if len(stats.Kinds) != 2 {
		t.Fatalf("per-kind stats: %+v", stats.Kinds)
	}
	// Sorted by kind: permroute < sweep.
	pr, sw := stats.Kinds[0], stats.Kinds[1]
	if pr.Kind != KindPermRoute || sw.Kind != KindSweep {
		t.Fatalf("kind order wrong: %+v", stats.Kinds)
	}
	if pr.Done != 1 || pr.Failed != 1 || pr.UnitRoutes != 7 {
		t.Fatalf("permroute aggregate wrong: %+v", pr)
	}
	if sw.Done != 2 || sw.Failed != 0 || sw.UnitRoutes != 22 || sw.Conflicts != 1 {
		t.Fatalf("sweep aggregate wrong: %+v", sw)
	}
}

// TestStoreSmallHelpers pins the leaf helpers: id sequence parsing
// (malformed ids order first), the memory store's empty recovery
// set, and the empty-percentile guard.
func TestStoreSmallHelpers(t *testing.T) {
	if seqOf("job-000042") != 42 {
		t.Fatal("seqOf lost the sequence")
	}
	if seqOf("weird") != 0 || seqOf("job-xyz") != 0 {
		t.Fatal("malformed ids must order first, not panic")
	}
	if got := memStore(t).recoveredQueued(); got != nil {
		t.Fatalf("memory store recovered %v, want nothing", got)
	}
	if p50, p99 := percentilesNs(nil); p50 != 0 || p99 != 0 {
		t.Fatal("empty percentile must be 0")
	}
}

// TestStatsPercentilesExact pins the nearest-rank percentiles that
// /v1/stats reports — the p-th percentile of n samples is the
// ceil(p·n/100)-th smallest — through the store's latency windows
// and the tenant leaderboard, which share one helper. Aggregation
// sorts a copy: the window itself keeps its insertion order.
func TestStatsPercentilesExact(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	shuffled := make([]int, 200)
	for i := range shuffled {
		shuffled[i] = 1 + (i*37)%200 // a permutation of 1..200
	}
	cases := []struct {
		samples  []time.Duration
		p50, p99 time.Duration
	}{
		{ms(7), 7 * time.Millisecond, 7 * time.Millisecond},
		{ms(5, 1, 3), 3 * time.Millisecond, 5 * time.Millisecond},
		{ms(4, 1, 3, 2), 2 * time.Millisecond, 4 * time.Millisecond},
		{ms(shuffled...), 100 * time.Millisecond, 198 * time.Millisecond},
	}
	for _, c := range cases {
		st := memStore(t)
		for _, d := range c.samples {
			st.latTotal.add(d)
			st.latRun.add(d / 2)
		}
		s := st.aggregate(time.Second)
		if s.LatencyTotalP50Ns != c.p50.Nanoseconds() || s.LatencyTotalP99Ns != c.p99.Nanoseconds() ||
			s.LatencyRunP50Ns != (c.p50/2).Nanoseconds() || s.LatencyRunP99Ns != (c.p99/2).Nanoseconds() {
			t.Fatalf("%d samples: store percentiles %+v, want p50 %v p99 %v (run halved)", len(c.samples), s, c.p50, c.p99)
		}
		if !slices.Equal(st.latTotal.samples, c.samples) {
			t.Fatal("aggregate reordered the live latency window")
		}
		rows := buildTenantStats(map[string]*tenantAgg{
			"t": {tenant: "t", jobs: len(c.samples), waits: slices.Clone(c.samples)},
		}, time.Second, func(string) int { return 1 }, nil)
		if rows[0].QueueWaitP50Ns != c.p50.Nanoseconds() || rows[0].QueueWaitP99Ns != c.p99.Nanoseconds() {
			t.Fatalf("%d samples: tenant wait percentiles %d/%d, want %v/%v",
				len(c.samples), rows[0].QueueWaitP50Ns, rows[0].QueueWaitP99Ns, c.p50, c.p99)
		}
	}
}

// TestErrorTaxonomyLeafCases pins the fallback classification: an
// unrecognized error is internal/500, and watchStats counts live
// subscribers.
func TestErrorTaxonomyLeafCases(t *testing.T) {
	if codeOf(errAny) != CodeInternal {
		t.Fatalf("unclassified error mapped to %q", codeOf(errAny))
	}
	if CodeInternal.HTTPStatus() != 500 || ErrorCode("madeup").HTTPStatus() != 500 {
		t.Fatal("internal/unknown codes must map to 500")
	}
	st := memStore(t)
	j := st.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, time.Now())
	if _, _, stop, err := st.watch(j.ID); err != nil {
		t.Fatal(err)
	} else {
		defer stop()
	}
	if subs, _ := st.watchStats(); subs != 1 {
		t.Fatalf("watchStats counted %d subscribers, want 1", subs)
	}
}

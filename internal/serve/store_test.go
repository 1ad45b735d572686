package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"time"

	"starmesh/internal/obs"
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
	// The finish window is bounded too.
	if n := len(st.window.events); n > maxLatencySamples {
		t.Fatalf("finish window holds %d events, bound is %d", n, maxLatencySamples)
	}
	if stats.LatencyTotalP50Ns == 0 || stats.ThroughputJobsPerSec != 10 {
		t.Fatalf("windowed aggregates wrong: %+v", stats)
	}
}

func TestLatWindowWrapsToRecentSamples(t *testing.T) {
	oldLat := maxLatencySamples
	maxLatencySamples = 4
	defer func() { maxLatencySamples = oldLat }()
	var w finishWindow
	for i := 1; i <= 10; i++ {
		w.add(&Job{RunNs: int64(i)})
	}
	if len(w.events) != 4 {
		t.Fatalf("window holds %d events, want 4", len(w.events))
	}
	// 7..10 ns land in four distinct buckets, so the counts name the
	// samples the ring kept.
	var want obs.LatencyCounts
	for i := 7; i <= 10; i++ {
		want[obs.LatencyBucket(time.Duration(i))]++
	}
	if w.run != want || w.total != want {
		t.Fatal("window counts do not hold the most recent four samples")
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
// (malformed ids order first) and the memory store's empty recovery
// set.
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
}

// withinAlpha reports whether a published percentile keeps the
// log-bucket contract against the exact value: |got − exact| ≤
// α·exact + ½ ns, checked in integers as 200·|got − exact| ≤
// 2·exact + 100 for α = 1%.
func withinAlpha(got, exact int64) bool {
	d := got - exact
	if d < 0 {
		d = -d
	}
	return 200*d <= 2*exact+100
}

// TestStatsPercentilesExact pins the nearest-rank percentiles that
// /v1/stats reports — the p-th percentile of n samples is the
// ceil(p·n/100)-th smallest, published within 1% — through the
// store's finish window, which the latency percentiles and the tenant
// leaderboard share. Aggregation reads the counts: the window itself
// keeps its insertion order.
func TestStatsPercentilesExact(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	// seq counts from a to b inclusive, up or down.
	seq := func(a, b int) []int {
		step := 1
		if b < a {
			step = -1
		}
		var out []int
		for x := a; x != b+step; x += step {
			out = append(out, x)
		}
		return out
	}
	shuffled := make([]int, 200)
	for i := range shuffled {
		shuffled[i] = 1 + (i*37)%200 // a permutation of 1..200
	}
	cases := []struct {
		name     string
		samples  []time.Duration // in insertion order
		p50, p99 time.Duration
	}{
		{"one", ms(7), 7 * time.Millisecond, 7 * time.Millisecond},
		{"three", ms(5, 1, 3), 3 * time.Millisecond, 5 * time.Millisecond},
		{"four", ms(4, 1, 3, 2), 2 * time.Millisecond, 4 * time.Millisecond},
		{"shuffled", ms(shuffled...), 100 * time.Millisecond, 198 * time.Millisecond},
		{"all-equal", ms(slices.Repeat([]int{3}, 4096)...), 3 * time.Millisecond, 3 * time.Millisecond},
		// A full window, 4096 samples: ranks 2048 and 4056.
		{"sorted", ms(seq(1, 4096)...), 2048 * time.Millisecond, 4056 * time.Millisecond},
		{"reversed", ms(seq(4096, 1)...), 2048 * time.Millisecond, 4056 * time.Millisecond},
		// 5000 inserts wrap the ring: it keeps 905..5000, laid out as
		// 4097..5000 then 905..4096, and ranks 2048 and 4056 of those
		// are 905+2047 and 905+4055.
		{"wrapped-full-ring", ms(seq(1, 5000)...), 2952 * time.Millisecond, 4960 * time.Millisecond},
	}
	now := time.Now()
	for _, c := range cases {
		st := memStore(t)
		for _, d := range c.samples {
			// total d, run and queue wait d/2 each
			st.window.add(&Job{Tenant: "t", Status: StatusDone, Finished: now,
				WaitNs: (d / 2).Nanoseconds(), RunNs: (d / 2).Nanoseconds()})
		}
		window := slices.Clone(st.window.events)
		s := st.aggregate(time.Second)
		if !withinAlpha(s.LatencyTotalP50Ns, c.p50.Nanoseconds()) || !withinAlpha(s.LatencyTotalP99Ns, c.p99.Nanoseconds()) ||
			!withinAlpha(s.LatencyRunP50Ns, (c.p50/2).Nanoseconds()) || !withinAlpha(s.LatencyRunP99Ns, (c.p99/2).Nanoseconds()) {
			t.Fatalf("%s: store percentiles %+v, want p50 %v p99 %v (run halved) within 1%%", c.name, s, c.p50, c.p99)
		}
		if !slices.Equal(st.window.events, window) {
			t.Fatalf("%s: aggregate reordered the live finish window", c.name)
		}
		aggs, span := st.tenantWindow(now, time.Second)
		rows := buildTenantStats(aggs, span, func(string) int { return 1 }, nil)
		if !withinAlpha(rows[0].QueueWaitP50Ns, (c.p50/2).Nanoseconds()) || !withinAlpha(rows[0].QueueWaitP99Ns, (c.p99/2).Nanoseconds()) {
			t.Fatalf("%s: tenant wait percentiles %d/%d, want %v/%v within 1%%",
				c.name, rows[0].QueueWaitP50Ns, rows[0].QueueWaitP99Ns, c.p50/2, c.p99/2)
		}
	}
}

// nearestRankRef is the sort-based reference the published
// percentiles are held to: the p-th percentile of the sorted samples
// is the ceil(p·n/100)-th smallest.
func nearestRankRef(sorted []time.Duration, p int) int64 {
	r := p * len(sorted) / 100
	if p*len(sorted)%100 != 0 {
		r++
	}
	return sorted[r-1].Nanoseconds()
}

// maxFuzzSamples caps a fuzzed window a little above the store's
// 4096-sample windows.
const maxFuzzSamples = 5000

// decodeWindow reads fuzz bytes as little-endian uint16 samples (an
// odd trailing byte is dropped), at most maxFuzzSamples of them.
func decodeWindow(data []byte) []time.Duration {
	out := make([]time.Duration, min(len(data)/2, maxFuzzSamples))
	for i := range out {
		out[i] = time.Duration(binary.LittleEndian.Uint16(data[2*i:]))
	}
	return out
}

func encodeWindow(v []int) []byte {
	out := make([]byte, 2*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint16(out[2*i:], uint16(x))
	}
	return out
}

// FuzzPercentilesNs checks the log-bucket percentiles behind /v1/stats
// against the sort-based reference on generated windows: each sample
// d goes into a finishWindow as a job with run time d and queue wait
// d (total 2d), at the default capacity and at one a third of their
// number, so the ring wraps and evicts. After the adds the total and
// run counts must equal a recount of the bucket indices the ring
// stores, and every percentile must lie within α of the reference
// over the samples the ring kept. The seeds cover the small sizes,
// both sides of the 4096-sample window, heavy ties, and all-equal,
// sorted, reversed and organ-pipe windows.
func FuzzPercentilesNs(f *testing.F) {
	gen := func(n int, at func(i int) int) []byte {
		v := make([]int, n)
		for i := range v {
			v[i] = at(i)
		}
		return encodeWindow(v)
	}
	lcg := func(i int) int { return (i*7919 + 13) % 1009 } // many ties
	f.Add(encodeWindow([]int{7}))
	f.Add(encodeWindow([]int{9, 2}))
	f.Add(encodeWindow([]int{5, 1, 3}))
	f.Add(gen(4096, lcg))
	f.Add(gen(4097, lcg))
	f.Add(gen(4096, func(int) int { return 42 }))
	f.Add(gen(4096, func(i int) int { return i }))
	f.Add(gen(4096, func(i int) int { return 4095 - i }))
	f.Add(gen(4096, func(i int) int { return min(i, 4095-i) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		samples := decodeWindow(data)
		defaultCap := maxLatencySamples
		defer func() { maxLatencySamples = defaultCap }()
		for _, capacity := range []int{defaultCap, len(samples)/3 + 1} {
			maxLatencySamples = capacity
			var w finishWindow
			for _, d := range samples {
				w.add(&Job{WaitNs: int64(d), RunNs: int64(d)})
			}
			var total, run obs.LatencyCounts
			for _, ev := range w.events {
				total[ev.total]++
				run[ev.run]++
			}
			if w.total != total || w.run != run {
				t.Fatalf("n=%d cap=%d: bucket counts drifted from the ring", len(samples), capacity)
			}
			kept := samples[len(samples)-len(w.events):]
			var want50, want99 int64
			if len(kept) > 0 {
				sorted := slices.Sorted(slices.Values(kept))
				want50, want99 = nearestRankRef(sorted, 50), nearestRankRef(sorted, 99)
			}
			p50, p99 := w.run.Percentiles(len(w.events))
			t50, t99 := w.total.Percentiles(len(w.events))
			if !withinAlpha(p50, want50) || !withinAlpha(p99, want99) ||
				!withinAlpha(t50, 2*want50) || !withinAlpha(t99, 2*want99) {
				t.Fatalf("n=%d cap=%d: run %d/%d, total %d/%d, sort reference %d/%d and twice that",
					len(samples), capacity, p50, p99, t50, t99, want50, want99)
			}
		}
	})
}

// TestStatsCountJobsThatRan pins which jobs the latency percentiles
// and the throughput count: every job that reached a terminal status
// from running — a job canceled mid-run included — and no job
// canceled straight out of the queue, which never ran.
func TestStatsCountJobsThatRan(t *testing.T) {
	st := memStore(t)
	now := time.Now()
	ran := st.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
	if _, ok := st.claim(ran.ID, now, nil); !ok {
		t.Fatalf("claim %s failed", ran.ID)
	}
	st.finish(ran.ID, ScenarioResult{}, context.Canceled, now.Add(5*time.Millisecond))
	queued := st.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
	if _, err := st.cancel(queued.ID, now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}

	s := st.aggregate(time.Second)
	if s.Done != 0 || s.Failed != 0 || s.Canceled != 2 {
		t.Fatalf("status counts %+v, want 2 canceled only", s)
	}
	// Only the job canceled mid-run is in the window and the rate.
	five := (5 * time.Millisecond).Nanoseconds()
	if !withinAlpha(s.LatencyTotalP50Ns, five) || !withinAlpha(s.LatencyTotalP99Ns, five) ||
		!withinAlpha(s.LatencyRunP50Ns, five) || !withinAlpha(s.LatencyRunP99Ns, five) {
		t.Fatalf("latency %+v, want 5ms within 1%% everywhere (the queued cancel never ran)", s)
	}
	if s.ThroughputJobsPerSec != 1 {
		t.Fatalf("throughput %v jobs/s over 1s, want 1", s.ThroughputJobsPerSec)
	}
}

// TestWatchStopForgetsSubscription: a subscriber that stops before
// its job's terminal transition (a client leaving mid-watch) takes
// its channel with it, and the last one to leave takes the job's
// entry — publish only forgets subscriptions still live at the
// terminal transition.
func TestWatchStopForgetsSubscription(t *testing.T) {
	st := memStore(t)
	now := time.Now()
	j := st.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
	_, _, stopA, err := st.watch(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, _, stopB, err := st.watch(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	stopA()
	if n := len(st.watchers[j.ID]); n != 1 {
		t.Fatalf("%d subscribers after one of two stopped, want 1", n)
	}
	stopB()
	if _, ok := st.claim(j.ID, now, nil); !ok {
		t.Fatalf("claim %s failed", j.ID)
	}
	st.finish(j.ID, ScenarioResult{OK: true}, nil, now.Add(time.Millisecond))
	if n := len(st.watchers); n != 0 {
		t.Fatalf("%d watcher entries leaked after every subscriber stopped", n)
	}
	stopB() // stop stays safe after the job is gone from the map
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

// BenchmarkStats times Service.Stats on a service whose workers are
// not started, after 5,000 jobs of one tenant finished through its
// store, so the finish window has wrapped.
// Its B/op and allocs/op count what one /v1/stats call allocates.
func BenchmarkStats(b *testing.B) {
	svc, err := newService(Config{Workers: 1, Queue: 8}, false)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Drain()
	now := time.Now()
	for i := 0; i < 5000; i++ {
		j := svc.store.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
		started := now.Add(time.Duration(i) * time.Microsecond)
		if _, ok := svc.store.claim(j.ID, started, nil); !ok {
			b.Fatalf("claim %s failed", j.ID)
		}
		svc.store.finish(j.ID, ScenarioResult{UnitRoutes: 10, OK: true}, nil,
			started.Add(time.Duration(1+i%97)*time.Microsecond))
	}
	b.ReportAllocs()
	for b.Loop() {
		svc.Stats()
	}
}

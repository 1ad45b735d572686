// Windowed per-tenant leaderboard tests: the finish-event ring's
// trailing-window cutoff and bounded capacity, and the rank
// intervals — disjoint Poisson intervals pin a rank, overlapping
// ones widen RankLo/RankHi to admit the uncertainty.
package serve

import (
	"testing"
	"time"

	"starmesh/internal/workload"
)

// winEvent pushes one synthetic finish event into the store's finish
// window.
func winEvent(st *store, tenant string, at time.Time, status Status, wait time.Duration, routes int) {
	j := &Job{Tenant: tenant, Status: status, Finished: at, WaitNs: wait.Nanoseconds()}
	if status == StatusDone {
		j.Result = &workload.ScenarioResult{UnitRoutes: routes, Conflicts: 1}
	}
	st.window.add(j)
}

func TestTenantWindowCutoffAndAggregation(t *testing.T) {
	st := memStore(t)
	now := time.Now()
	// Two old events fall outside the 10s window; the rest count.
	winEvent(st, "a", now.Add(-time.Minute), StatusDone, time.Millisecond, 100)
	winEvent(st, "b", now.Add(-11*time.Second), StatusDone, time.Millisecond, 100)
	winEvent(st, "a", now.Add(-5*time.Second), StatusDone, 2*time.Millisecond, 40)
	winEvent(st, "a", now.Add(-2*time.Second), StatusCanceled, 8*time.Millisecond, 0)
	winEvent(st, "b", now.Add(-time.Second), StatusDone, time.Millisecond, 7)

	aggs, _ := st.tenantWindow(now, 10*time.Second)
	a, b := aggs["a"], aggs["b"]
	if a == nil || b == nil || len(aggs) != 2 {
		t.Fatalf("window aggregation %+v", aggs)
	}
	// a: one done (40 routes) + one canceled; the canceled job counts
	// toward jobs and waits but contributes no completed work.
	waits := 0
	for _, n := range a.waits {
		waits += int(n)
	}
	if a.jobs != 2 || a.done != 1 || a.routes != 40 || a.conflicts != 1 || waits != 2 {
		t.Fatalf("tenant a agg %+v", a)
	}
	if b.jobs != 1 || b.done != 1 || b.routes != 7 {
		t.Fatalf("tenant b agg %+v", b)
	}
}

func TestTenantEventRingBounded(t *testing.T) {
	old := maxLatencySamples
	maxLatencySamples = 4
	defer func() { maxLatencySamples = old }()

	st := memStore(t)
	now := time.Now()
	for i := 0; i < 6; i++ {
		winEvent(st, "t", now.Add(time.Duration(i)*time.Second), StatusDone, 0, 1)
	}
	if len(st.window.events) != 4 {
		t.Fatalf("ring grew to %d, want capacity 4", len(st.window.events))
	}
	// The two oldest events were overwritten: a window covering
	// everything still sees only the newest four.
	aggs, _ := st.tenantWindow(now.Add(6*time.Second), time.Hour)
	if aggs["t"].jobs != 4 {
		t.Fatalf("ring retained %d events, want the newest 4", aggs["t"].jobs)
	}
}

func TestBuildTenantStatsRankIntervals(t *testing.T) {
	window := 10 * time.Second
	weightOf := func(string) int { return 1 }

	// Disjoint intervals: 100 jobs vs 1 job cannot overlap, so both
	// ranks are pinned; the backlogged-but-idle tenant gets a zero
	// row whose interval ties it with the 1-job tenant's lower bound.
	rows := buildTenantStats(map[string]*tenantAgg{
		"big":   {tenant: "big", jobs: 100, done: 100, routes: 1000},
		"small": {tenant: "small", jobs: 1, done: 1, routes: 3},
	}, window, weightOf, map[string]int{"idle": 2})
	if len(rows) != 3 {
		t.Fatalf("rows %+v", rows)
	}
	big, small, idle := rows[0], rows[1], rows[2]
	if big.Tenant != "big" || small.Tenant != "small" || idle.Tenant != "idle" {
		t.Fatalf("throughput order wrong: %+v", rows)
	}
	if big.Rank != 1 || big.RankLo != 1 || big.RankHi != 1 {
		t.Fatalf("big rank %d [%d,%d], want pinned 1", big.Rank, big.RankLo, big.RankHi)
	}
	// small's interval [0, …] touches idle's zero interval: rank 2 or 3.
	if small.Rank != 2 || small.RankLo != 2 || small.RankHi != 3 {
		t.Fatalf("small rank %d [%d,%d], want 2 [2,3]", small.Rank, small.RankLo, small.RankHi)
	}
	if idle.Rank != 3 || idle.RankLo != 2 || idle.RankHi != 3 || idle.Queued != 2 {
		t.Fatalf("idle rank %d [%d,%d] queued %d, want 3 [2,3] queued 2", idle.Rank, idle.RankLo, idle.RankHi, idle.Queued)
	}
	if big.ThroughputJobsPerSec != 10 || big.ThroughputLo >= big.ThroughputHi {
		t.Fatalf("big throughput %+v", big)
	}

	// Overlapping intervals: 5 vs 4 jobs in the window is noise, and
	// the rank bounds must admit either ordering.
	rows = buildTenantStats(map[string]*tenantAgg{
		"a": {tenant: "a", jobs: 5, done: 5},
		"b": {tenant: "b", jobs: 4, done: 4},
	}, window, weightOf, nil)
	for _, r := range rows {
		if r.RankLo != 1 || r.RankHi != 2 {
			t.Fatalf("overlapping intervals must not pin ranks: %+v", rows)
		}
	}
	if rows[0].Tenant != "a" || rows[0].Rank != 1 || rows[1].Rank != 2 {
		t.Fatalf("point-estimate order wrong: %+v", rows)
	}
}

// TestTenantThroughputBeyondRingCapacity finishes 10,000 jobs spread
// evenly over 10 s, 1,000 jobs/s, so the 4096-event finish window
// wraps. At the default 60 s window and at a 10 s one, the
// leaderboard must publish the span the ring covers, about 4.1 s, as
// tenant_window_ns, and a throughput interval holding the true 1,000
// jobs/s — not the ring's 4096 finishes spread over the whole window.
func TestTenantThroughputBeyondRingCapacity(t *testing.T) {
	svc, err := newService(Config{Workers: 1, Queue: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	// The finishes end two seconds from now, well past the time the
	// loop takes; the stats are read once that time comes, so the
	// ring's span ends at the last finish.
	end := time.Now().Add(2 * time.Second)
	const jobs = 10000
	for i := range jobs {
		at := end.Add(time.Duration(i-jobs+1) * time.Millisecond)
		j := svc.store.add(JobSpec{Kind: KindSweep, N: 3}, "t", at)
		if _, ok := svc.store.claim(j.ID, at, nil); !ok {
			t.Fatalf("claim %s failed", j.ID)
		}
		svc.store.finish(j.ID, ScenarioResult{OK: true}, nil, at)
	}
	time.Sleep(time.Until(end))
	for _, window := range []time.Duration{DefaultTenantWindow, 10 * time.Second} {
		s := svc.StatsWindow(window)
		if len(s.Tenants) != 1 {
			t.Fatalf("window %v: leaderboard %+v, want one row", window, s.Tenants)
		}
		row, span := s.Tenants[0], time.Duration(s.TenantWindowNs)
		if row.Jobs != maxLatencySamples || row.ThroughputLo > 1000 || row.ThroughputHi < 1000 {
			t.Fatalf("window %v: %d jobs at %.1f jobs/s in [%.1f, %.1f], want 4096 jobs and an interval holding 1000",
				window, row.Jobs, row.ThroughputJobsPerSec, row.ThroughputLo, row.ThroughputHi)
		}
		if span < 4095*time.Millisecond || span > 4200*time.Millisecond {
			t.Fatalf("window %v: tenant_window_ns %v, want the ring's span of about 4.1s", window, span)
		}
	}
}

// Windowed per-tenant leaderboards: the store keeps a bounded ring
// of recent finish events (who, when, how long it waited, how much
// work it did), and /v1/stats aggregates the trailing window into a
// throughput-ranked table per tenant. Ranks from short windows are
// noisy, so each row also carries a 95% Poisson interval on its
// throughput and the range of ranks consistent with those intervals:
// two tenants whose intervals overlap cannot be confidently ordered,
// and their rank ranges say so.
package serve

import (
	"math"
	"sort"
	"time"
)

// tenantEvent is one finished job, reduced to what the leaderboard
// needs.
type tenantEvent struct {
	at        time.Time
	tenant    string
	status    Status
	wait      int // latBucket of the queue wait
	routes    int64
	conflicts int64
}

// tenantEventRing is a fixed-capacity ring of the most recent finish
// events (capacity maxLatencySamples, like the latency windows).
// Events replayed from the WAL re-enter with their original finish
// times, so a recovered service's window matches what it would have
// been — up to snapshot compaction, which drops pre-snapshot events
// (the window is a trailing view, not an archive).
type tenantEventRing struct {
	events []tenantEvent
	next   int
}

// add records a job that just reached a terminal state from running.
// Caller holds the store lock.
func (r *tenantEventRing) add(j *Job) {
	ev := tenantEvent{at: j.Finished, tenant: j.Tenant, status: j.Status, wait: latBucket(time.Duration(j.WaitNs))}
	if j.Status == StatusDone && j.Result != nil {
		ev.routes = int64(j.Result.UnitRoutes)
		ev.conflicts = int64(j.Result.Conflicts)
	}
	if len(r.events) < maxLatencySamples {
		r.events = append(r.events, ev)
		return
	}
	r.events[r.next] = ev
	r.next = (r.next + 1) % len(r.events)
}

// tenantAgg is one tenant's slice of the trailing window.
type tenantAgg struct {
	tenant    string
	jobs      int
	done      int
	routes    int64
	conflicts int64
	waits     latCounts // queue waits, jobs of them
}

// tenantWindow folds the events of the trailing window per tenant,
// with no allocation per event. Runs of one tenant reuse its
// aggregate without a map lookup.
func (st *store) tenantWindow(now time.Time, window time.Duration) map[string]*tenantAgg {
	st.mu.Lock()
	defer st.mu.Unlock()
	cutoff := now.Add(-window)
	out := make(map[string]*tenantAgg)
	var agg *tenantAgg
	for i := range st.tenantWin.events {
		ev := &st.tenantWin.events[i]
		if ev.at.Before(cutoff) {
			continue
		}
		if agg == nil || agg.tenant != ev.tenant {
			if agg = out[ev.tenant]; agg == nil {
				agg = &tenantAgg{tenant: ev.tenant}
				out[ev.tenant] = agg
			}
		}
		agg.jobs++
		if ev.status == StatusDone {
			agg.done++
			agg.routes += ev.routes
			agg.conflicts += ev.conflicts
		}
		agg.waits[ev.wait]++
	}
	return out
}

// TenantStats is one row of the windowed per-tenant leaderboard.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Weight is the tenant's configured WFQ share.
	Weight int `json:"weight"`
	// Queued is the tenant's current scheduler backlog.
	Queued int `json:"queued"`
	// Jobs and Done count the window's finishes (Jobs includes failed
	// and canceled; Done only successful completions).
	Jobs int `json:"jobs"`
	Done int `json:"done"`
	// UnitRoutes and Conflicts total the window's completed work.
	UnitRoutes int64 `json:"unit_routes"`
	Conflicts  int64 `json:"conflicts"`
	// QueueWaitP50Ns / P99Ns are queue-wait percentiles over the
	// window's finishes — the fairness signal: a starved tenant's
	// p99 explodes while a hot one's stays flat. Each is read from
	// log-bucket counts and lies within 1% of the exact nearest-rank
	// value over the same finishes (plus ½ ns of rounding).
	QueueWaitP50Ns int64 `json:"queue_wait_p50_ns"`
	QueueWaitP99Ns int64 `json:"queue_wait_p99_ns"`
	// ThroughputJobsPerSec is Jobs over the window, with a 95%
	// Poisson interval (jobs ± 1.96·√jobs, clamped at 0): the
	// uncertainty a count that small carries.
	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
	ThroughputLo         float64 `json:"throughput_lo"`
	ThroughputHi         float64 `json:"throughput_hi"`
	// Rank is the tenant's position by point-estimate throughput
	// (1 = highest). RankLo/RankHi bound the ranks consistent with
	// the throughput intervals: RankLo counts only tenants whose
	// whole interval sits above this one's, RankHi everything not
	// strictly below. RankLo==RankHi means the window's counts
	// actually support the ordering.
	Rank   int `json:"rank"`
	RankLo int `json:"rank_lo"`
	RankHi int `json:"rank_hi"`
}

// DefaultTenantWindow is the /v1/stats leaderboard window when the
// request does not override it (exported: the cluster client uses it
// when fanning a windowless Stats out across nodes).
const DefaultTenantWindow = 60 * time.Second

// buildTenantStats turns the window aggregation into the ranked
// leaderboard. weights and depths come from the scheduler side;
// tenants with a live backlog but no finishes yet still get a row
// (their window numbers are zero — they are waiting, not absent).
func buildTenantStats(aggs map[string]*tenantAgg, window time.Duration,
	weightOf func(string) int, depths map[string]int) []TenantStats {
	rows := make([]TenantStats, 0, len(aggs))
	for name, agg := range aggs {
		row := TenantStats{
			Tenant:     name,
			Weight:     weightOf(name),
			Queued:     depths[name],
			Jobs:       agg.jobs,
			Done:       agg.done,
			UnitRoutes: agg.routes,
			Conflicts:  agg.conflicts,
		}
		row.QueueWaitP50Ns, row.QueueWaitP99Ns = agg.waits.percentiles(agg.jobs)
		row.setThroughput(window)
		rows = append(rows, row)
	}
	for name := range depths {
		if _, seen := aggs[name]; !seen {
			rows = append(rows, TenantStats{Tenant: name, Weight: weightOf(name), Queued: depths[name]})
		}
	}
	return RankTenantStats(rows)
}

// setThroughput sets the row's throughput over the window from its
// finish count n, with the 95% Poisson interval n ± 1.96·√n (floored
// at zero) — the one interval construction, used by a single node
// and again by MergeStats after it sums the counts.
func (row *TenantStats) setThroughput(window time.Duration) {
	secs := window.Seconds()
	if secs <= 0 {
		return
	}
	n := float64(row.Jobs)
	margin := 1.96 * math.Sqrt(n)
	row.ThroughputJobsPerSec = n / secs
	row.ThroughputLo = math.Max(0, n-margin) / secs
	row.ThroughputHi = (n + margin) / secs
}

// RankTenantStats orders leaderboard rows by point-estimate
// throughput and assigns each its rank plus the simultaneous rank
// interval the throughput intervals support (RankLo counts only
// tenants whose whole interval sits above this one's; RankHi
// everything not confidently below). Exported for the cluster
// fan-in: after MergeStats recomputes the Poisson intervals from
// cluster-wide counts, the rank bounds must be rebuilt from those —
// per-node ranks do not merge.
func RankTenantStats(rows []TenantStats) []TenantStats {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ThroughputJobsPerSec != rows[j].ThroughputJobsPerSec {
			return rows[i].ThroughputJobsPerSec > rows[j].ThroughputJobsPerSec
		}
		return rows[i].Tenant < rows[j].Tenant
	})
	for i := range rows {
		rows[i].Rank = i + 1
		lo, hi := 1, len(rows)
		for k := range rows {
			if k == i {
				continue
			}
			if rows[k].ThroughputLo > rows[i].ThroughputHi {
				lo++ // confidently above: this row cannot outrank it
			}
			if rows[k].ThroughputHi < rows[i].ThroughputLo {
				hi-- // confidently below: this row cannot sink past it
			}
		}
		rows[i].RankLo, rows[i].RankHi = lo, hi
	}
	return rows
}

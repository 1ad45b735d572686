// The job store: the record of every job the service has admitted —
// the lifecycle state machine (admit → claim → finish/cancel), the
// watch subscriptions, listing/pagination — plus the aggregation the
// /v1/stats endpoint reports: status counts, latency percentiles,
// unit-route and conflict totals. State lives in memory; a store
// opened with a directory also logs every transition to the WAL of
// wal.go and recovers from it at boot. The store holds the canonical
// *Job values; everything it hands out is a snapshot copy, so readers
// never race the workers.
package serve

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"starmesh/internal/obs"
	"starmesh/internal/workload"
)

// Status is the lifecycle state of a job.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Job is one admitted job and its outcome.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
	// Tenant names the submitting tenant (resolved from X-API-Key;
	// DefaultTenant when no key was presented). It rides the WAL with
	// the job, so recovery re-admits into the right tenant queue.
	Tenant string `json:"tenant,omitempty"`
	Shape  string `json:"shape"`
	Status Status `json:"status"`
	// Result is set once the job is done; its unit routes, conflicts
	// and self-check are bit-identical to a standalone run of the
	// same spec.
	Result *workload.ScenarioResult `json:"result,omitempty"`
	Error  string                   `json:"error,omitempty"`

	// CancelRequested marks a running job whose cancellation has been
	// requested; the job transitions to canceled at its next
	// cooperative checkpoint.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Preemptions counts how many times a higher-priority submission
	// bounced this job back to the queue mid-run.
	Preemptions int `json:"preemptions,omitempty"`
	// preempting marks a running job whose context was canceled to
	// make room for a higher-priority one: the checkpoint abort
	// requeues it instead of finishing it canceled. Deliberately not
	// serialized — a crash mid-preemption recovers through the normal
	// interrupted-running path (requeue + re-execute), same outcome.
	preempting bool

	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// WaitNs and RunNs split the total latency into queueing and
	// execution time (set when the job finishes).
	WaitNs int64 `json:"wait_ns,omitempty"`
	RunNs  int64 `json:"run_ns,omitempty"`

	// Trace is the job's span timeline (see trace.go): every lifecycle
	// event with its duration since the previous one, persisted with
	// the job through the WAL.
	Trace []TraceEvent `json:"trace,omitempty"`
}

// snapshot copies the job for handing outside the store lock.
func (j *Job) snapshot() Job {
	out := *j
	if j.Result != nil {
		r := *j.Result
		out.Result = &r
	}
	out.Trace = append([]TraceEvent(nil), j.Trace...)
	return out
}

// Retention bounds. The service is long-running, so the store keeps
// a bounded window of job records and finishes: once more than
// maxRetainedJobs are held, the oldest terminal jobs are evicted
// (their ids then answer 404 — the per-kind totals stay cumulative),
// and the finish window holds the most recent maxLatencySamples
// finishes. Variables rather than constants so tests can shrink them.
var (
	maxRetainedJobs   = 4096
	maxLatencySamples = 4096
)

// finishEvent is one job that reached a terminal status from running,
// reduced to what /v1/stats reads: when, whose, the work it did and
// the log buckets of its total, run and queue-wait times.
type finishEvent struct {
	at                time.Time
	tenant            string
	done              bool
	routes, conflicts int64
	total, run, wait  uint16
}

// finishWindow is a fixed-capacity ring of the most recent finishes,
// the one window behind the /v1/stats latency percentiles and the
// per-tenant leaderboard (tenantstats.go). add moves the total and
// run bucket counts with every append and eviction, so percentiles
// read the counts and never walk the ring.
type finishWindow struct {
	events     []finishEvent
	next       int // the oldest event, once the ring is full
	total, run obs.LatencyCounts
}

// add records a job that just reached a terminal status from running.
// The times come from WaitNs and RunNs, which the job record persists
// exactly, so a finish refolded at recovery lands in the same buckets.
func (w *finishWindow) add(j *Job) {
	ev := finishEvent{
		at:     j.Finished,
		tenant: j.Tenant,
		done:   j.Status == StatusDone,
		total:  obs.LatencyBucket(time.Duration(j.WaitNs + j.RunNs)),
		run:    obs.LatencyBucket(time.Duration(j.RunNs)),
		wait:   obs.LatencyBucket(time.Duration(j.WaitNs)),
	}
	if ev.done && j.Result != nil {
		ev.routes, ev.conflicts = int64(j.Result.UnitRoutes), int64(j.Result.Conflicts)
	}
	w.total[ev.total]++
	w.run[ev.run]++
	if len(w.events) < maxLatencySamples {
		w.events = append(w.events, ev)
		return
	}
	old := &w.events[w.next]
	w.total[old.total]--
	w.run[old.run]--
	*old = ev
	w.next = (w.next + 1) % len(w.events)
}

// walOp names one job transition in the WAL; every transition emits
// one through st.log (a no-op for a memory-only store), so the WAL
// observes every transition under the same lock that orders them.
type walOp string

const (
	opSubmit    walOp = "submit"    // admitted queued
	opClaim     walOp = "claim"     // queued → running
	opFinish    walOp = "finish"    // running → done/failed/canceled
	opCancel    walOp = "cancel"    // queued → canceled
	opCancelReq walOp = "cancelreq" // running, cancellation requested
	opRemove    walOp = "remove"    // admission rollback
	opPreempt   walOp = "preempt"   // running → queued (preemption requeue)
)

// store is the mutex-guarded job table; openStore (wal.go) builds
// one, memory-only or WAL-backed.
type store struct {
	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // admission order, for listing
	front int      // index in order of the oldest retained job
	next  int

	// wal is the durable log of a store opened with a directory (nil =
	// memory only). st.log appends to it under mu, which makes the
	// WAL's record order identical to the store's transition order.
	wal *walLog

	// onClaim and onFinish, when set, observe transitions for the
	// metrics layer (queue-wait and run-time histograms, finished
	// counters; ran=false means the job was canceled straight out of
	// the queue). Called under mu; implementations must be cheap.
	onClaim  func(tenant, kind string, wait time.Duration)
	onFinish func(status Status, tenant, kind string, run time.Duration, ran bool)

	// watchDrops counts transition snapshots dropped because a
	// subscriber's channel was full (surfaced in /v1/stats so lossy
	// watch streams are observable).
	watchDrops int64

	// cancels holds the context cancel of every running job, so a
	// DELETE can abort it at its next cooperative checkpoint.
	cancels map[string]context.CancelFunc
	// watchers holds the status-transition subscribers per job id;
	// every transition publishes a snapshot, and terminal transitions
	// close the channels.
	watchers map[string][]chan Job

	queued, running int                   // live jobs; terminal ones are counted in byKind
	finished        int64                 // finishes from running that this process ran; replay does not count
	byKind          map[string]*KindStats // cumulative per scenario kind, unaffected by eviction
	window          finishWindow          // the most recent finishes from running
}

// watchBuffer bounds a subscriber channel. A job makes at most a
// handful of transitions after subscription (running, cancel
// requested, terminal), so the buffer never fills in practice; a
// full channel drops the intermediate snapshot rather than blocking
// the store (the terminal snapshot still arrives via the close-time
// drain in the handler's final read of the job). Every drop is
// counted in Stats.WatchDrops. A variable so tests can shrink it.
var watchBuffer = 8

// publish pushes a snapshot of j to its watchers; terminal
// transitions close and forget the subscription. Caller holds st.mu.
func (st *store) publish(j *Job) {
	chans := st.watchers[j.ID]
	if len(chans) == 0 {
		return
	}
	snap := j.snapshot()
	for _, ch := range chans {
		select {
		case ch <- snap:
		default:
			st.watchDrops++
		}
	}
	if j.Status.Terminal() {
		for _, ch := range chans {
			close(ch)
		}
		delete(st.watchers, j.ID)
	}
}

// watch subscribes to a job's status transitions. It returns the
// current snapshot plus a channel of subsequent snapshots; the
// channel closes after the terminal transition (nil when the job is
// already terminal — the snapshot is the whole story). stop
// unsubscribes early and is safe to call after the close.
func (st *store) watch(id string) (Job, <-chan Job, func(), error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return Job{}, nil, nil, ErrNotFound
	}
	snap := j.snapshot()
	if j.Status.Terminal() {
		return snap, nil, func() {}, nil
	}
	ch := make(chan Job, watchBuffer)
	st.watchers[id] = append(st.watchers[id], ch)
	stop := func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		chans := st.watchers[id]
		for i, c := range chans {
			if c == ch {
				if len(chans) == 1 {
					// The last subscriber left before the terminal
					// transition: publish would never delete the entry.
					delete(st.watchers, id)
				} else {
					st.watchers[id] = append(chans[:i], chans[i+1:]...)
				}
				return
			}
		}
	}
	return snap, ch, stop, nil
}

// seqID formats a sequence number as fmt.Sprintf(prefix+"%06d", n)
// does for n ≥ 0: the job ids and the generated request ids.
func seqID(prefix string, n int64) string {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], n, 10)
	return prefix + "000000"[:max(6-len(digits), 0)] + string(digits)
}

// seqOf extracts a job id's admission sequence number (the pagination
// cursor's currency); malformed ids order first.
func seqOf(id string) int {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return 0
	}
	return n
}

// SeqOf exposes a job id's admission sequence — the ordering the
// cluster client's merged pagination sorts and cursors by.
func SeqOf(id string) int { return seqOf(id) }

// evict drops the oldest terminal jobs beyond the retention bound.
// Queued or running jobs are never evicted (their population is
// bounded by the queue depth plus the worker count anyway), so
// eviction stops at the first live one. Caller holds st.mu.
func (st *store) evict() {
	for len(st.jobs) > maxRetainedJobs && st.front < len(st.order) {
		j := st.jobs[st.order[st.front]]
		if j != nil && !j.Status.Terminal() {
			break
		}
		if j != nil {
			delete(st.jobs, j.ID)
		}
		st.front++
	}
	// Compact the order slice once the dead prefix dominates.
	if st.front > 1024 && st.front > len(st.order)/2 {
		st.order = append([]string(nil), st.order[st.front:]...)
		st.front = 0
	}
}

// add admits a job in the queued state and returns its snapshot.
func (st *store) add(spec JobSpec, tenant string, now time.Time) Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	j := &Job{
		ID:      seqID("job-", int64(st.next)),
		Spec:    spec,
		Tenant:  tenant,
		Shape:   spec.Shape(),
		Status:  StatusQueued,
		Created: now,
		// Room for the usual submitted, claimed, machine_ready and
		// terminal events.
		Trace: make([]TraceEvent, 0, 4),
	}
	appendTrace(j, now, TraceSubmitted, "tenant="+tenant)
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
	st.queued++
	st.log(opSubmit, j)
	return j.snapshot()
}

// countLive moves the live count of status by delta; terminal
// statuses are counted per kind instead. Caller holds st.mu.
func (st *store) countLive(status Status, delta int) {
	switch status {
	case StatusQueued:
		st.queued += delta
	case StatusRunning:
		st.running += delta
	}
}

// remove forgets a job that never made it into the queue (admission
// rollback after ErrQueueFull).
func (st *store) remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j, ok := st.jobs[id]; ok {
		st.countLive(j.Status, -1)
		delete(st.jobs, id)
		if n := len(st.order); n > 0 && st.order[n-1] == id {
			st.order = st.order[:n-1]
		}
		st.log(opRemove, j)
	}
}

// get returns a snapshot of a job.
func (st *store) get(id string) (Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.snapshot(), true
}

// Page size bounds of the v1 listing.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// ListQuery filters and paginates the v1 job listing.
type ListQuery struct {
	// Status keeps only jobs in that state ("" = all).
	Status Status
	// Limit is the page size (0 = defaultPageLimit, capped at
	// maxPageLimit).
	Limit int
	// Cursor resumes a walk: the opaque NextCursor of the previous
	// page ("" = start at the newest job).
	Cursor string
}

// JobPage is one page of the listing, newest first. NextCursor is
// set iff at least one more matching job exists beyond this page.
type JobPage struct {
	Jobs       []Job  `json:"jobs"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// page walks the retained jobs newest-first, filtered by status,
// resuming strictly below the cursor. The cursor is the admission
// sequence of the last job returned — stable across evictions and
// new admissions (new jobs get higher sequences and land before the
// cursor, never inside a resumed walk).
func (st *store) page(q ListQuery) (JobPage, error) {
	limit := q.Limit
	if limit <= 0 {
		limit = defaultPageLimit
	}
	if limit > maxPageLimit {
		limit = maxPageLimit
	}
	below := int(^uint(0) >> 1) // max int: no cursor = start at newest
	if q.Cursor != "" {
		seq, err := strconv.Atoi(q.Cursor)
		if err != nil || seq < 0 {
			return JobPage{}, fmt.Errorf("bad cursor %q", q.Cursor)
		}
		below = seq
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	page := JobPage{Jobs: []Job{}}
	for i := len(st.order) - 1; i >= st.front; i-- {
		j := st.jobs[st.order[i]]
		if j == nil || seqOf(j.ID) >= below {
			continue
		}
		if q.Status != "" && j.Status != q.Status {
			continue
		}
		if len(page.Jobs) == limit {
			// One more match exists: the page below this one.
			page.NextCursor = strconv.Itoa(seqOf(page.Jobs[len(page.Jobs)-1].ID))
			return page, nil
		}
		page.Jobs = append(page.Jobs, j.snapshot())
	}
	return page, nil
}

// claim transitions a queued job to running, registering the cancel
// that aborts it mid-run; false means the job was canceled while
// waiting and the worker must skip it.
func (st *store) claim(id string, now time.Time, cancel context.CancelFunc) (JobSpec, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok || j.Status != StatusQueued {
		return JobSpec{}, false
	}
	st.queued--
	st.running++
	j.Status = StatusRunning
	j.Started = now
	appendTrace(j, now, TraceClaimed, "")
	if cancel != nil {
		st.cancels[id] = cancel
	}
	st.log(opClaim, j)
	if st.onClaim != nil {
		st.onClaim(j.Tenant, j.Spec.Kind, now.Sub(j.Created))
	}
	st.publish(j)
	return j.Spec, true
}

// finish records a job's outcome and folds it into the aggregates.
// A preempted job (preempting set, checkpoint abort, no user cancel)
// does not finish: it transitions back to queued with the partial
// stats of the interrupted run preserved on the record — the exact
// cancel-checkpoint mechanism, with a requeue instead of a terminal
// status. requeued=true tells the caller to re-enqueue it.
func (st *store) finish(id string, res workload.ScenarioResult, err error, now time.Time) (requeued bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok || j.Status != StatusRunning {
		return false
	}
	delete(st.cancels, id)
	st.running--
	if j.preempting && jobCanceled(err) && !j.CancelRequested {
		st.queued++
		j.Status = StatusQueued
		j.Started = time.Time{}
		j.preempting = false
		j.Preemptions++
		res.Name = j.Spec.Name()
		j.Result = &res // partial stats of the interrupted run
		appendTrace(j, now, TracePreempted,
			fmt.Sprintf("requeued with partial stats (%d unit routes)", res.UnitRoutes))
		st.log(opPreempt, j)
		st.publish(j)
		return true
	}
	// A preempt that lost the race to completion (or to a real
	// cancel): fall through to the normal terminal transition.
	j.preempting = false
	j.Finished = now
	j.WaitNs = j.Started.Sub(j.Created).Nanoseconds()
	j.RunNs = j.Finished.Sub(j.Started).Nanoseconds()
	switch {
	case jobCanceled(err):
		// A cooperative abort: terminal canceled, with the partial
		// stats the runner accumulated before the checkpoint fired
		// preserved on the job record (OK false, not folded into the
		// done aggregates).
		j.Status = StatusCanceled
		j.Error = err.Error()
		res.Name = j.Spec.Name()
		res.ElapsedNs = j.RunNs
		j.Result = &res
	case err != nil:
		j.Status = StatusFailed
		j.Error = err.Error()
	default:
		j.Status = StatusDone
		res.Name = j.Spec.Name()
		res.ElapsedNs = j.RunNs
		j.Result = &res
	}
	appendTrace(j, now, string(j.Status), j.Error)
	st.foldFinished(j)
	st.finished++
	st.log(opFinish, j)
	if st.onFinish != nil {
		st.onFinish(j.Status, j.Tenant, j.Spec.Kind, now.Sub(j.Started), true)
	}
	st.publish(j)
	st.evict()
	return false
}

// foldFinished folds a job that just reached a terminal status from
// running into the aggregates: per-kind totals and the finish window.
// Shared by the live finish path and WAL replay, so recovered
// aggregates cannot drift from live ones. Caller holds st.mu; j's
// terminal fields are already set.
func (st *store) foldFinished(j *Job) {
	kind := st.kindStats(j.Spec.Kind)
	switch j.Status {
	case StatusCanceled:
		kind.Canceled++
	case StatusFailed:
		kind.Failed++
	default: // done
		kind.Done++
		kind.UnitRoutes += int64(j.Result.UnitRoutes)
		kind.Conflicts += int64(j.Result.Conflicts)
	}
	st.window.add(j)
}

// kindStats returns the totals of one scenario kind, created on first
// use. Caller holds st.mu.
func (st *store) kindStats(kind string) *KindStats {
	k, ok := st.byKind[kind]
	if !ok {
		k = &KindStats{Kind: kind}
		st.byKind[kind] = k
	}
	return k
}

// cancel aborts a job. Queued jobs transition to canceled
// immediately (the worker skips them); running jobs get their
// context canceled and abort at the next cooperative checkpoint —
// the returned snapshot shows cancel_requested, and the terminal
// canceled transition follows within one checkpoint's latency.
// Terminal jobs conflict with ErrTerminal.
func (st *store) cancel(id string, now time.Time) (Job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	switch j.Status {
	case StatusQueued:
		st.queued--
		j.Status = StatusCanceled
		j.Finished = now
		appendTrace(j, now, string(StatusCanceled), "canceled while queued")
		st.kindStats(j.Spec.Kind).Canceled++
		st.log(opCancel, j)
		if st.onFinish != nil {
			st.onFinish(StatusCanceled, j.Tenant, j.Spec.Kind, 0, false)
		}
		st.publish(j)
		snap := j.snapshot()
		st.evict()
		return snap, nil
	case StatusRunning:
		j.CancelRequested = true
		appendTrace(j, now, TraceCancelRequested, "")
		if cancel, ok := st.cancels[id]; ok {
			cancel()
		}
		st.log(opCancelReq, j)
		st.publish(j)
		return j.snapshot(), nil
	default:
		return j.snapshot(), fmt.Errorf("%w: job %s is %s", ErrTerminal, id, j.Status)
	}
}

// migrate transitions a queued job to locally-terminal canceled with
// the migration marker, for drain-with-migration. It reuses cancel's
// per-kind count and WAL op (the logged snapshot carries the
// "migrated" error, so replay and live state agree) and publishes to
// watchers — a local watch stream ends here; the routing client's
// cluster watcher re-attaches to the resubmitted job. false means the
// job is no longer queued (a worker won the race) and must not move.
func (st *store) migrate(id string, now time.Time) (Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok || j.Status != StatusQueued {
		return Job{}, false
	}
	st.queued--
	j.Status = StatusCanceled
	j.Finished = now
	j.Error = MigratedError
	appendTrace(j, now, TraceMigrated, "queued job handed off at drain")
	st.kindStats(j.Spec.Kind).Canceled++
	st.log(opCancel, j)
	if st.onFinish != nil {
		st.onFinish(StatusCanceled, j.Tenant, j.Spec.Kind, 0, false)
	}
	st.publish(j)
	snap := j.snapshot()
	st.evict()
	return snap, true
}

// cancelAllRunning fires the context cancel of every running job —
// the drain deadline's hammer: each aborts at its next checkpoint.
func (st *store) cancelAllRunning() {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	for id, cancel := range st.cancels {
		if j, ok := st.jobs[id]; ok {
			j.CancelRequested = true
			appendTrace(j, now, TraceCancelRequested, "drain deadline")
			st.log(opCancelReq, j)
			st.publish(j)
		}
		cancel()
	}
}

// Stats is the aggregated service view (/v1/stats).
type Stats struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`

	UnitRoutes int64 `json:"unit_routes"`
	Conflicts  int64 `json:"conflicts"`

	// WatchDrops counts transition snapshots dropped from full watch
	// subscriber channels — nonzero means at least one watch stream
	// missed an intermediate (never the terminal) transition.
	WatchDrops int64 `json:"watch_drops"`

	// Durability describes the job-store backend: memory, or the WAL
	// paths, snapshot age and boot-time recovery counts.
	Durability Durability `json:"durability"`

	// Kinds aggregates finished jobs per scenario kind (sorted by
	// kind for stable output) — every registry family the service has
	// executed appears here.
	Kinds []KindStats `json:"kinds,omitempty"`

	// Latency percentiles over the most recent jobs that reached a
	// terminal status from running (done, failed, or canceled mid-run;
	// jobs canceled from the queue never ran and are not counted) — a
	// bounded window of maxLatencySamples — with total =
	// admission→finish, run = execution only. Each is read from
	// log-bucket counts and lies within 1% of the exact nearest-rank
	// value over the same window (plus ½ ns of rounding).
	LatencyTotalP50Ns int64 `json:"latency_total_p50_ns"`
	LatencyTotalP99Ns int64 `json:"latency_total_p99_ns"`
	LatencyRunP50Ns   int64 `json:"latency_run_p50_ns"`
	LatencyRunP99Ns   int64 `json:"latency_run_p99_ns"`

	// ThroughputJobsPerSec counts the jobs this process ran to a
	// terminal status (done, failed or canceled mid-run) since this
	// process started, over its uptime. Finishes recovered from a
	// durable store's snapshot or log are not counted.
	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`

	Workers  int  `json:"workers"`
	QueueCap int  `json:"queue_cap"`
	Pooling  bool `json:"pooling"`
	Draining bool `json:"draining"`

	Pools []PoolStats `json:"pools"`

	// TenantWindowNs is how far back the per-tenant leaderboard below
	// reaches: the requested trailing window (default 60s; GET
	// /v1/stats?window= overrides), or the shorter span of the last
	// maxLatencySamples (4096) finishes when they all fall inside it,
	// since the leaderboard folds at most those. Throughputs are over
	// this span.
	TenantWindowNs int64 `json:"tenant_window_ns,omitempty"`
	// Tenants is the windowed per-tenant leaderboard, ranked by
	// throughput, with Poisson rank-confidence bounds (see
	// TenantStats) — small windows make ranks noisy, so the bounds
	// say which rank differences the window actually supports.
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// aggregate computes the store's part of Stats. The terminal status
// counts and the work totals are sums over the per-kind table, and
// the latency percentiles are read from the finish window's bucket
// counts under the store lock: one pass over each count array, no
// copy.
func (st *store) aggregate(uptime time.Duration) Stats {
	st.mu.Lock()
	s := Stats{Queued: st.queued, Running: st.running, WatchDrops: st.watchDrops}
	for _, k := range st.byKind {
		s.Kinds = append(s.Kinds, *k)
		s.Done += int(k.Done)
		s.Failed += int(k.Failed)
		s.Canceled += int(k.Canceled)
		s.UnitRoutes += k.UnitRoutes
		s.Conflicts += k.Conflicts
	}
	if secs := uptime.Seconds(); secs > 0 {
		s.ThroughputJobsPerSec = float64(st.finished) / secs
	}
	n := len(st.window.events)
	s.LatencyTotalP50Ns, s.LatencyTotalP99Ns = st.window.total.Percentiles(n)
	s.LatencyRunP50Ns, s.LatencyRunP99Ns = st.window.run.Percentiles(n)
	st.mu.Unlock()

	sort.Slice(s.Kinds, func(i, j int) bool { return s.Kinds[i].Kind < s.Kinds[j].Kind })
	return s
}

// KindStats aggregates the finished jobs of one scenario kind.
type KindStats struct {
	Kind       string `json:"kind"`
	Done       int64  `json:"done"`
	Failed     int64  `json:"failed"`
	Canceled   int64  `json:"canceled"`
	UnitRoutes int64  `json:"unit_routes"`
	Conflicts  int64  `json:"conflicts"`
}

// setHooks installs the metrics observers. Called once before any
// worker starts, so no lock is needed.
func (st *store) setHooks(onClaim func(string, string, time.Duration), onFinish func(Status, string, string, time.Duration, bool)) {
	st.onClaim = onClaim
	st.onFinish = onFinish
}

// requestPreempt picks and cancels the best preemption victim: a
// running, preemptible (multi-trial sweep — the long-running class
// with per-unit-route checkpoints) job of strictly lower priority,
// with no cancel or preempt already in flight. It picks none while
// fewer than workers jobs run: a free worker takes the new job
// anyway. Among candidates the lowest priority loses; ties break to
// the most recently started (least sunk work discarded). The
// victim's checkpoint abort then requeues it via finish's preempting
// path.
func (st *store) requestPreempt(priority, workers int) (string, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.running < workers {
		return "", false
	}
	var victim *Job
	for id := range st.cancels {
		j, ok := st.jobs[id]
		if !ok || j.Status != StatusRunning || j.CancelRequested || j.preempting {
			continue
		}
		if !preemptible(j.Spec) || j.Spec.Priority >= priority {
			continue
		}
		if victim == nil ||
			j.Spec.Priority < victim.Spec.Priority ||
			(j.Spec.Priority == victim.Spec.Priority && j.Started.After(victim.Started)) {
			victim = j
		}
	}
	if victim == nil {
		return "", false
	}
	victim.preempting = true
	st.cancels[victim.ID]()
	return victim.ID, true
}

// preemptible reports whether a spec's running job may be preempted:
// only multi-trial sweeps — the workload class whose checkpoint
// cadence (every unit route) makes the abort prompt and whose
// re-execution cost is understood. Everything else runs to
// completion once claimed.
func preemptible(spec JobSpec) bool {
	return spec.Kind == workload.KindSweep && spec.Trials > 1
}

// runningCount samples the number of jobs executing on a worker for
// the metrics layer.
func (st *store) runningCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.running
}

// watchStats samples the live watch-subscription state for the
// metrics layer: active subscriber channels and cumulative drops.
func (st *store) watchStats() (subscribers int, drops int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, chans := range st.watchers {
		subscribers += len(chans)
	}
	return subscribers, st.watchDrops
}

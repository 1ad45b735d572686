// Service-level crash-recovery tests: a durable service is killed
// mid-load (freeze — the WAL stops cold, exactly like SIGKILL, while
// the doomed process runs on), restarted on the same directory, and
// must re-admit queued jobs in order and re-execute interrupted
// running jobs to bit-identical results.
package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"starmesh/internal/workload"
)

// crash abandons a durable service the way SIGKILL would: the WAL is
// frozen first (no transition after this point reaches disk), then
// the service is torn down with an already-expired context so its
// goroutines and pools release without draining gracefully.
func crash(t *testing.T, svc *Service) {
	t.Helper()
	svc.store.freeze()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = svc.Shutdown(ctx)
}

// standaloneResult runs a spec outside the service — the parity
// reference a re-executed job must match bit for bit.
func standaloneResult(t *testing.T, spec JobSpec) ScenarioResult {
	t.Helper()
	sc, err := workload.ScenarioFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res.Name, res.ElapsedNs = "", 0
	return res
}

// TestCrashRecoveryParity pins the recovery contract exactly: a
// stopped service (workers held back) stages every pre-crash state on
// disk deterministically — one job finished, one canceled, one
// RUNNING when the crash hits, three still queued — then the restart
// must settle all of it: terminal jobs keep their recorded outcomes,
// the interrupted running job and the queued backlog re-enter the
// queue in original admission order, and every re-executed job's
// result is bit-identical to a standalone run of its spec.
func TestCrashRecoveryParity(t *testing.T) {
	dir := t.TempDir()
	svc, err := newService(Config{Workers: 2, Queue: 32, StoreDir: dir}, false)
	if err != nil {
		t.Fatal(err)
	}

	specs := []JobSpec{
		{Kind: KindSort, N: 4, Dist: "uniform", Seed: 7},    // running at the crash
		{Kind: KindSweep, N: 3},                             // done before the crash
		{Kind: KindSweep, N: 4},                             // canceled before the crash
		{Kind: KindShear, Rows: 8, Cols: 8, Seed: 11},       // queued
		{Kind: KindFaultRoute, N: 4, Faults: 2, Pairs: 8},   // queued
		{Kind: KindSort, N: 4, Dist: "reversed", Seed: 999}, // queued
	}
	var ids []string
	for _, spec := range specs {
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	// Drive the staged states by hand (no workers are running, so
	// nothing races): claim job 0 into RUNNING, finish job 1 with a
	// real standalone result, cancel job 2 out of the queue.
	now := time.Now()
	if _, ok := svc.store.claim(ids[0], now, nil); !ok {
		t.Fatal("claim failed")
	}
	doneSpec, _ := svc.Job(ids[1])
	doneRes := standaloneResult(t, doneSpec.Spec)
	if _, ok := svc.store.claim(ids[1], now, nil); !ok {
		t.Fatal("claim failed")
	}
	svc.store.finish(ids[1], doneRes, nil, now.Add(time.Millisecond))
	recordedDone, _ := svc.Job(ids[1])
	if _, err := svc.Cancel(ids[2]); err != nil {
		t.Fatal(err)
	}

	crash(t, svc)

	svc2, err := NewService(Config{Workers: 2, Queue: 32, StoreDir: dir})
	if err != nil {
		t.Fatalf("restart on the crashed dir: %v", err)
	}
	defer svc2.Drain()

	dur := svc2.Durability()
	if dur.Store != "wal" || dur.ReexecutedRunning != 1 || dur.RecoveredQueued != 3 ||
		dur.CanceledAtRecovery != 0 {
		t.Fatalf("recovery counts wrong: %+v", dur)
	}
	// Re-admission preserves admission order: the interrupted running
	// job first (it was admitted first), then the queued backlog.
	wantOrder := []string{ids[0], ids[3], ids[4], ids[5]}
	if got := svc2.store.wal.recovered; !reflect.DeepEqual(got, wantOrder) {
		t.Fatalf("re-admission order %v, want %v", got, wantOrder)
	}

	// Terminal history survived the crash byte for byte.
	if j, _ := svc2.Job(ids[1]); j.Status != StatusDone || j.Result == nil ||
		*j.Result != *recordedDone.Result {
		t.Fatalf("pre-crash done job lost its result: %+v", j)
	}
	if j, _ := svc2.Job(ids[2]); j.Status != StatusCanceled {
		t.Fatalf("pre-crash canceled job resurrected: %+v", j)
	}

	// The recovered jobs run to completion, each bit-identical to a
	// standalone run of its spec — deterministic re-execution.
	for _, i := range []int{0, 3, 4, 5} {
		job := waitTerminal(t, svc2, ids[i])
		if job.Status != StatusDone {
			t.Fatalf("recovered job %s ended %s: %s", job.ID, job.Status, job.Error)
		}
		got := *job.Result
		got.Name, got.ElapsedNs = "", 0
		if want := standaloneResult(t, job.Spec); got != want {
			t.Fatalf("re-executed %s diverged from standalone run: %+v != %+v", job.ID, got, want)
		}
	}

	// Ids keep their sequence: the next admission continues after the
	// recovered ones, so cursors minted before the crash stay valid.
	j, err := svc2.Submit(JobSpec{Kind: KindSweep, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-000007" {
		t.Fatalf("post-recovery id %s, want job-000007", j.ID)
	}
}

// TestCrashRecoveryUnderLoad kills a live service mid-load — workers
// running, outcomes racing the freeze — and requires the restart to
// finish every submitted job with a standalone-identical result, no
// matter which side of the crash each one landed on.
func TestCrashRecoveryUnderLoad(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewService(Config{Workers: 1, Queue: 64, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Sweeps long enough (~tens of ms each) that the single worker is
	// still deep in the batch when the plug gets pulled.
	var ids []string
	for i := 0; i < 12; i++ {
		j, err := svc.Submit(JobSpec{Kind: KindSweep, N: 4, Seed: int64(i), Trials: 20_000})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// Let part of the batch land, then pull the plug mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Done < 2 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	crash(t, svc)

	svc2, err := NewService(Config{Workers: 2, Queue: 64, StoreDir: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer svc2.Drain()
	dur := svc2.Durability()
	if dur.RecoveredQueued+dur.ReexecutedRunning == 0 {
		t.Fatalf("the crash interrupted nothing — the test raced to completion: %+v", dur)
	}

	for i, id := range ids {
		job := waitTerminal(t, svc2, id)
		if job.Status != StatusDone {
			t.Fatalf("job %s ended %s after recovery: %s", id, job.Status, job.Error)
		}
		got := *job.Result
		got.Name, got.ElapsedNs = "", 0
		if want := standaloneResult(t, job.Spec); got != want {
			t.Fatalf("job %s (spec %d) diverged after recovery: %+v != %+v", id, i, got, want)
		}
	}
	if st := svc2.Stats(); st.Done != len(ids) || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("counts wrong after full recovery drain: %+v", st)
	}
}

// TestDurableCleanRestartPreservesHistory is the no-crash path: a
// drained shutdown leaves a snapshot that the next process loads with
// nothing to recover.
func TestDurableCleanRestartPreservesHistory(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewService(Config{Workers: 2, Queue: 32, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, spec := range testSpecs() {
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		waitTerminal(t, svc, id)
	}
	before := svc.Stats()
	svc.Drain()

	svc2, err := NewService(Config{Workers: 2, Queue: 32, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Drain()
	dur := svc2.Durability()
	if dur.RecoveredQueued != 0 || dur.ReexecutedRunning != 0 || dur.CanceledAtRecovery != 0 {
		t.Fatalf("clean restart claims it recovered something: %+v", dur)
	}
	after := svc2.Stats()
	if after.Done != before.Done || after.UnitRoutes != before.UnitRoutes ||
		!reflect.DeepEqual(after.Kinds, before.Kinds) {
		t.Fatalf("history lost across clean restart:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestHealthzReportsDurability checks the /v1/healthz surface: the
// durability block names the store kind, WAL paths, snapshot age and
// the recovery counts of the boot that produced this process.
func TestHealthzReportsDurability(t *testing.T) {
	dir := t.TempDir()
	svc, err := newService(Config{Workers: 1, Queue: 8, StoreDir: dir}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(JobSpec{Kind: KindSweep, N: 3}); err != nil {
		t.Fatal(err)
	}
	crash(t, svc)

	svc2, err := NewService(Config{Workers: 1, Queue: 8, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Drain()
	ts := httptest.NewServer(svc2.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	d := h.Durability
	if d.Store != "wal" || d.Dir != dir || d.WALPath == "" || d.SnapshotPath == "" {
		t.Fatalf("healthz durability incomplete: %+v", d)
	}
	if d.RecoveredQueued != 1 || d.LastSnapshot.IsZero() {
		t.Fatalf("healthz recovery state wrong: %+v", d)
	}

	// The memory store says so too — a probe can always tell which
	// backend it is talking to.
	mem, err := NewService(Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Drain()
	if d := mem.Durability(); d.Store != "memory" {
		t.Fatalf("memory durability wrong: %+v", d)
	}

	// /v1/stats carries the same block.
	var st Stats
	resp2, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Durability.Store != "wal" || st.Durability.RecoveredQueued != 1 {
		t.Fatalf("stats durability wrong: %+v", st.Durability)
	}
}

// TestRecoveryRestoresFinishWindow reopens a durable service twice
// after two tenants finished jobs on it: the first open replays the
// log, the second loads the boot snapshot the first wrote, with an
// empty log. Both must publish the latency percentiles and the
// leaderboard rows of the service before the restart. A job whose
// requested cancel recovery honors stays out of both: it never
// finished a run.
func TestRecoveryRestoresFinishWindow(t *testing.T) {
	dir := t.TempDir()
	open := func() *Service {
		t.Helper()
		svc, err := newService(Config{Workers: 1, Queue: 8, StoreDir: dir}, false)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := open()
	now := time.Now()
	outcomes := []error{nil, nil, errAny, nil, context.Canceled}
	for i, tenant := range []string{"a", "b", "a", "b", "a"} {
		created := now.Add(time.Duration(i-len(outcomes)) * time.Second)
		j := svc.store.add(JobSpec{Kind: KindSweep, N: 3}, tenant, created)
		started := created.Add(time.Duration(i+1) * time.Millisecond)
		if _, ok := svc.store.claim(j.ID, started, nil); !ok {
			t.Fatalf("claim %s failed", j.ID)
		}
		svc.store.finish(j.ID, ScenarioResult{UnitRoutes: 10 * (i + 1), Conflicts: i, OK: true}, outcomes[i],
			started.Add(time.Duration(3*i+2)*time.Millisecond))
	}
	held := svc.store.add(JobSpec{Kind: KindSweep, N: 3}, "b", now)
	if _, ok := svc.store.claim(held.ID, now, nil); !ok {
		t.Fatalf("claim %s failed", held.ID)
	}
	if _, err := svc.Cancel(held.ID); err != nil {
		t.Fatal(err)
	}
	want := svc.StatsWindow(time.Hour)
	svc.Drain()

	for reopen := 1; reopen <= 2; reopen++ {
		svc = open()
		got, dur := svc.StatsWindow(time.Hour), svc.Durability()
		svc.Drain()
		if reopen == 1 && dur.CanceledAtRecovery != 1 {
			t.Fatalf("first open: recovery counts %+v, want the held job canceled", dur)
		}
		if reopen == 2 && dur.ReplayedRecords != 0 {
			t.Fatalf("second open replayed %d records, want the boot snapshot alone", dur.ReplayedRecords)
		}
		if got.LatencyTotalP50Ns != want.LatencyTotalP50Ns || got.LatencyTotalP99Ns != want.LatencyTotalP99Ns ||
			got.LatencyRunP50Ns != want.LatencyRunP50Ns || got.LatencyRunP99Ns != want.LatencyRunP99Ns {
			t.Fatalf("open %d: latency drifted across the restart:\nbefore %+v\nafter  %+v", reopen, want, got)
		}
		if !reflect.DeepEqual(got.Tenants, want.Tenants) {
			t.Fatalf("open %d: leaderboard drifted across the restart:\nbefore %+v\nafter  %+v", reopen, want.Tenants, got.Tenants)
		}
	}
}

// TestThroughputCountsOnlyThisProcess restarts a durable service
// after it finished jobs: the restarted process has run nothing, so
// its throughput reads 0 while the recovered totals still count
// every finish. Its first own finish makes the throughput positive.
func TestThroughputCountsOnlyThisProcess(t *testing.T) {
	dir := t.TempDir()
	open := func() *Service {
		t.Helper()
		svc, err := newService(Config{Workers: 1, Queue: 8, StoreDir: dir}, false)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	runOne := func(svc *Service) {
		t.Helper()
		now := time.Now()
		j := svc.store.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
		if _, ok := svc.store.claim(j.ID, now, nil); !ok {
			t.Fatalf("claim %s failed", j.ID)
		}
		svc.store.finish(j.ID, ScenarioResult{UnitRoutes: 5, OK: true}, nil, now.Add(time.Millisecond))
	}
	const finished = 5
	svc := open()
	for range finished {
		runOne(svc)
	}
	if st := svc.Stats(); st.Done != finished || st.ThroughputJobsPerSec <= 0 {
		t.Fatalf("before the restart: done %d, %v jobs/s", st.Done, st.ThroughputJobsPerSec)
	}
	svc.Drain()

	svc = open()
	defer svc.Drain()
	if st := svc.Stats(); st.Done != finished || st.ThroughputJobsPerSec != 0 {
		t.Fatalf("after the restart: done %d, %v jobs/s; want %d done at 0 jobs/s",
			st.Done, st.ThroughputJobsPerSec, finished)
	}
	runOne(svc)
	if st := svc.Stats(); st.Done != finished+1 || st.ThroughputJobsPerSec <= 0 {
		t.Fatalf("after one new finish: done %d, %v jobs/s", st.Done, st.ThroughputJobsPerSec)
	}
}

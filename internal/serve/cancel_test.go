// v1 cancellation contract tests: mid-run abort with bounded
// latency, partial stats, Reset-safe pooled machines, the typed
// terminal conflict, and drain deadlines.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"starmesh/internal/workload"
)

// submitOrDie admits a spec.
func submitOrDie(t *testing.T, svc *Service, spec JobSpec) Job {
	t.Helper()
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit %+v: %v", spec, err)
	}
	return job
}

// waitRunning polls until the job is running.
func waitRunning(t *testing.T, svc *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if job.Status == StatusRunning {
			return
		}
		if job.Status.Terminal() {
			t.Fatalf("job %s ended %s before it could be canceled mid-run", id, job.Status)
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("job %s never started", id)
}

// TestCancelRunningSweepBoundedLatency is the tentpole's acceptance
// test: DELETE of a RUNNING long sweep aborts it with bounded
// latency (the checkpoint before every unit route), ends it in the
// canceled terminal status with partial stats preserved, and leaves
// the pooled machine Reset-safe — the next job of the same shape
// reuses it and still matches a standalone run bit for bit.
func TestCancelRunningSweepBoundedLatency(t *testing.T) {
	svc, err := NewService(Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	// A sweep of a million trials: hours of work if never canceled,
	// but never more than one unit route (microseconds on S_4) away
	// from a checkpoint.
	long := submitOrDie(t, svc, JobSpec{Kind: KindSweep, N: 4, Trials: 1_000_000})
	waitRunning(t, svc, long.ID)
	time.Sleep(2 * time.Millisecond) // let it accumulate partial work

	t0 := time.Now()
	snap, err := svc.Cancel(long.ID)
	if err != nil {
		t.Fatalf("cancel of running job: %v", err)
	}
	if !snap.CancelRequested && !snap.Status.Terminal() {
		t.Fatalf("cancel snapshot shows neither cancel_requested nor terminal: %+v", snap)
	}
	final := waitTerminal(t, svc, long.ID)
	latency := time.Since(t0)
	if final.Status != StatusCanceled {
		t.Fatalf("canceled running job ended %s (%s)", final.Status, final.Error)
	}
	// Bounded latency: the checkpoint granularity is one unit route
	// (~µs); 5s is orders of magnitude of slack for CI, while the
	// uncanceled job would run for hours.
	if latency > 5*time.Second {
		t.Fatalf("cancel took %v — not a bounded abort", latency)
	}
	if final.Result == nil {
		t.Fatal("canceled job lost its partial stats")
	}
	if final.Result.OK {
		t.Fatalf("partial result claims OK: %+v", final.Result)
	}
	if final.Result.UnitRoutes <= 0 {
		t.Fatalf("canceled mid-run job reports no partial unit routes: %+v", final.Result)
	}

	// The machine went back to the star:4 pool via Reset. The next
	// job of that shape must reuse it AND reproduce the standalone
	// result exactly — the pooled-parity check.
	spec := JobSpec{Kind: KindSweep, N: 4, Trials: 2}
	job := waitTerminal(t, svc, submitOrDie(t, svc, spec).ID)
	if job.Status != StatusDone {
		t.Fatalf("post-cancel job ended %s (%s)", job.Status, job.Error)
	}
	sc, err := workload.ScenarioFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := *job.Result
	got.Name, got.ElapsedNs = "", 0
	want.Name, want.ElapsedNs = "", 0
	if got != want {
		t.Fatalf("machine reused after a mid-run cancel diverged from standalone: %+v != %+v", got, want)
	}
	var reuses int64
	for _, p := range svc.Stats().Pools {
		reuses += p.Reuses
	}
	if reuses == 0 {
		t.Fatal("post-cancel job did not reuse the canceled job's pooled machine")
	}
	if st := svc.Stats(); st.Canceled != 1 || st.Done != 1 {
		t.Fatalf("stats after mid-run cancel: %+v", st)
	}
}

// TestCancelTerminalJobConflicts is the satellite regression: DELETE
// of an already-terminal job is the typed ErrTerminal conflict (409
// with code "terminal" over HTTP), not a silent no-op.
func TestCancelTerminalJobConflicts(t *testing.T) {
	svc, err := NewService(Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	job := waitTerminal(t, svc, submitOrDie(t, svc, JobSpec{Kind: KindSweep, N: 3}).ID)
	if job.Status != StatusDone {
		t.Fatalf("setup job ended %s", job.Status)
	}

	if _, err := svc.Cancel(job.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("cancel of done job returned %v, want ErrTerminal", err)
	}
	// And canceled jobs are terminal too — canceling twice conflicts.
	queued, err := newService(Config{Queue: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	q := submitOrDie(t, queued, JobSpec{Kind: KindSweep, N: 3})
	if _, err := queued.Cancel(q.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Cancel(q.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel returned %v, want ErrTerminal", err)
	}
	queued.Drain()

	// Over HTTP: 409 with the typed code.
	code, data := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+job.ID, "")
	if code != http.StatusConflict {
		t.Fatalf("DELETE of done job returned %d: %s", code, data)
	}
	var body ErrorBody
	if err := json.Unmarshal(data, &body); err != nil || body.Error.Code != CodeTerminal {
		t.Fatalf("409 body is not the typed terminal conflict: %s", data)
	}
}

// TestHealthzReportsDrainingDuringShutdown is the satellite fix:
// while a graceful shutdown is still waiting on admitted jobs — the
// listener alive, requests answered — /v1/healthz must already
// report draining (503), and the drain deadline must cancel the
// stragglers.
func TestHealthzReportsDrainingDuringShutdown(t *testing.T) {
	svc, err := NewService(Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	long := submitOrDie(t, svc, JobSpec{Kind: KindSweep, N: 4, Trials: 1_000_000})
	waitRunning(t, svc, long.ID)

	// Healthy while serving.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz before shutdown: %d", code)
	}

	// Begin a deadline-bound shutdown while the job runs.
	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	go func() { shutdownErr <- svc.Shutdown(ctx) }()

	// The listener is still up (httptest) and the job still running:
	// healthz must already answer draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, data := doJSON(t, "GET", ts.URL+"/v1/healthz", "")
		var h Health
		_ = json.Unmarshal(data, &h)
		if code == http.StatusServiceUnavailable && h.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported draining during shutdown: %d %s", code, data)
		}
		time.Sleep(time.Millisecond)
	}

	// The deadline fires, the running job is canceled at its next
	// checkpoint, and Shutdown returns the deadline error.
	select {
	case err := <-shutdownErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung past its deadline")
	}
	job, _ := svc.Job(long.ID)
	if job.Status != StatusCanceled {
		t.Fatalf("drain deadline left the job %s", job.Status)
	}
	if !svc.Draining() {
		t.Fatal("service not draining after Shutdown")
	}
}

// TestSubmitBatchAtomicCapacity: batch admission is all-or-nothing
// against the queue bound too.
func TestSubmitBatchAtomicCapacity(t *testing.T) {
	svc, err := newService(Config{Queue: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	three := []JobSpec{{Kind: KindSweep, N: 3}, {Kind: KindSweep, N: 3}, {Kind: KindSweep, N: 3}}
	// One slot occupied: a 2-spec batch exceeds the FREE capacity —
	// transient queue_full backpressure, nothing admitted.
	if _, err := svc.Submit(three[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitBatch(three[:2]); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized batch returned %v, want ErrQueueFull", err)
	}
	if page, err := svc.ListJobs(ListQuery{}); err != nil || len(page.Jobs) != 1 {
		t.Fatalf("rejected batch left %d jobs in the store (%v), want the 1 pre-admitted", len(page.Jobs), err)
	}
	// A batch fitting the free capacity is admitted whole.
	jobs, err := svc.SubmitBatch(three[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Status != StatusQueued {
		t.Fatalf("batch admission wrong: %+v", jobs)
	}
	if _, err := svc.SubmitBatch(nil); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("empty batch returned %v, want ErrInvalidSpec", err)
	}
	var batchErr *BatchError
	_, err = svc.SubmitBatch([]JobSpec{{Kind: KindSweep, N: 3}, {Kind: "warp"}})
	if !errors.As(err, &batchErr) || len(batchErr.Items) != 1 || batchErr.Items[0].Index != 1 {
		t.Fatalf("invalid batch returned %v, want BatchError at index 1", err)
	}
	if !strings.Contains(err.Error(), "spec[1]") {
		t.Fatalf("batch error does not locate the bad spec: %v", err)
	}
}

// TestStorePageFiltersByStatus covers the status filter + cursor at
// the store level (the HTTP walk is covered by the client suite).
func TestStorePageFiltersByStatus(t *testing.T) {
	st := memStore(t)
	now := time.Now()
	for i := 0; i < 6; i++ {
		j := st.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
		if i%2 == 0 {
			if _, ok := st.claim(j.ID, now, nil); !ok {
				t.Fatal("claim failed")
			}
			st.finish(j.ID, ScenarioResult{UnitRoutes: 1, OK: true}, nil, now)
		}
	}
	page, err := st.page(ListQuery{Status: StatusDone, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 2 || page.NextCursor == "" {
		t.Fatalf("first done page: %+v", page)
	}
	page2, err := st.page(ListQuery{Status: StatusDone, Limit: 2, Cursor: page.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Jobs) != 1 || page2.NextCursor != "" {
		t.Fatalf("second done page: %+v", page2)
	}
	queuedPage, err := st.page(ListQuery{Status: StatusQueued})
	if err != nil {
		t.Fatal(err)
	}
	if len(queuedPage.Jobs) != 3 {
		t.Fatalf("queued filter saw %d, want 3", len(queuedPage.Jobs))
	}
	if _, err := st.page(ListQuery{Cursor: "bogus"}); err == nil {
		t.Fatal("bogus cursor accepted")
	}
}

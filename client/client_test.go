// Round-trip suite: the typed client against real in-process
// services (httptest) — pagination walks, atomic batch rejection,
// watch streams across the job lifecycle — plus a fake-clock 429
// retry test against a scripted handler.
package client

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"starmesh/internal/serve"
)

// newTestService spins up a service + HTTP server + client.
func newTestService(t *testing.T, cfg serve.Config) (*serve.Service, *Client) {
	t.Helper()
	svc, err := serve.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		// Bounded drain: a test that left a long sweep running (e.g.
		// by failing early) must not hang the suite — the deadline
		// cancels it at its next checkpoint.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc, New(ts.URL)
}

// quickSpec is a job that completes in microseconds.
func quickSpec(seed int64) JobSpec {
	return JobSpec{Kind: "faultroute", N: 4, Faults: 1, Pairs: 2, Seed: seed}
}

// slowSpec is a sweep job long enough to straddle test actions (the
// cancellation checkpoints fire before every unit route, so it still
// aborts in microseconds).
func slowSpec() JobSpec {
	return JobSpec{Kind: "sweep", N: 4, Trials: 1_000_000}
}

func TestPaginationWalkAcrossThreePages(t *testing.T) {
	_, c := newTestService(t, serve.Config{Workers: 2, Queue: 16})
	ctx := context.Background()

	const jobs = 7
	var ids []string
	for i := 0; i < jobs; i++ {
		job, err := c.Submit(ctx, quickSpec(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		final, err := c.Await(ctx, id)
		if err != nil {
			t.Fatalf("await %s: %v", id, err)
		}
		if final.Status != StatusDone {
			t.Fatalf("job %s ended %s: %s", id, final.Status, final.Error)
		}
	}

	// Walk pages of 3: 3 + 3 + 1, newest first, no overlap, no gap.
	var walked []string
	cursor := ""
	pages := 0
	for {
		page, err := c.List(ctx, ListOptions{Limit: 3, Cursor: cursor, Status: StatusDone})
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, j := range page.Jobs {
			walked = append(walked, j.ID)
		}
		if page.NextCursor == "" {
			break
		}
		if len(page.Jobs) != 3 {
			t.Fatalf("non-final page holds %d jobs, want 3", len(page.Jobs))
		}
		cursor = page.NextCursor
	}
	if pages != 3 {
		t.Fatalf("walk took %d pages, want 3", pages)
	}
	if len(walked) != jobs {
		t.Fatalf("walk saw %d jobs, want %d", len(walked), jobs)
	}
	for i, id := range walked {
		if id != ids[jobs-1-i] { // newest first
			t.Fatalf("walk order wrong at %d: got %s, want %s", i, id, ids[jobs-1-i])
		}
	}

	// ListAll agrees with the manual walk.
	all, err := c.ListAll(ctx, ListOptions{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != jobs {
		t.Fatalf("ListAll saw %d jobs, want %d", len(all), jobs)
	}
}

func TestSubmitBatchAtomicValidationRejection(t *testing.T) {
	_, c := newTestService(t, serve.Config{Workers: 1, Queue: 16})
	ctx := context.Background()

	specs := []JobSpec{
		quickSpec(1),          // valid
		{Kind: "sort", N: 99}, // n out of range
		{Kind: "warpdrive"},   // unknown kind
		quickSpec(2),          // valid
	}
	_, err := c.SubmitBatch(ctx, specs)
	if err == nil {
		t.Fatal("batch with invalid specs accepted")
	}
	if !IsInvalidSpec(err) {
		t.Fatalf("batch rejection is %v, want invalid_spec", err)
	}
	api := AsAPIError(err)
	if api.Status != http.StatusBadRequest || len(api.Details) != 2 {
		t.Fatalf("batch rejection details wrong: %+v", api)
	}
	if api.Details[0].Index != 1 || api.Details[1].Index != 2 {
		t.Fatalf("batch rejection names indexes %d,%d, want 1,2", api.Details[0].Index, api.Details[1].Index)
	}

	// Atomic: the valid specs were NOT admitted.
	all, err := c.ListAll(ctx, ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 0 {
		t.Fatalf("rejected batch still admitted %d jobs", len(all))
	}

	// A fully valid batch admits every spec, in order.
	jobs, err := c.SubmitBatch(ctx, []JobSpec{quickSpec(3), quickSpec(4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID == jobs[1].ID {
		t.Fatalf("batch admission wrong: %+v", jobs)
	}
	for _, j := range jobs {
		if final, err := c.Await(ctx, j.ID); err != nil || final.Status != StatusDone {
			t.Fatalf("batch job %s: %v %v", j.ID, final.Status, err)
		}
	}
}

// TestWatchStreams drives the full lifecycle over the watch stream:
// a blocked worker keeps the observed jobs queued until the test is
// subscribed, so every transition is seen, not raced.
func TestWatchStreams(t *testing.T) {
	svc, c := newTestService(t, serve.Config{Workers: 1, Queue: 16})
	ctx := context.Background()

	// Occupy the single worker with a long sweep.
	blocker, err := c.Submit(ctx, slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, blocker.ID, StatusRunning)

	// queued → running → done.
	doneJob, err := c.Submit(ctx, quickSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	wDone, err := c.Watch(ctx, doneJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer wDone.Close()

	// queued → canceled.
	cancelJob, err := c.Submit(ctx, quickSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	wCancel, err := c.Watch(ctx, cancelJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer wCancel.Close()
	if _, err := c.Cancel(ctx, cancelJob.ID); err != nil {
		t.Fatal(err)
	}
	if got := statuses(t, wCancel); !equalStatuses(got, []Status{StatusQueued, StatusCanceled}) {
		t.Fatalf("canceled watch saw %v, want [queued canceled]", got)
	}

	// Unblock the worker: the queued quick job runs and completes.
	if _, err := c.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	got := statuses(t, wDone)
	if !equalStatuses(got, []Status{StatusQueued, StatusRunning, StatusDone}) {
		t.Fatalf("done watch saw %v, want [queued running done]", got)
	}

	// The blocker itself ended canceled with partial stats preserved.
	final, err := c.Await(ctx, blocker.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled || final.Result == nil {
		t.Fatalf("blocker ended %s (result %v), want canceled with partial stats", final.Status, final.Result)
	}
	_ = svc
}

// statuses drains a watch stream to its end, deduplicating
// consecutive snapshots of the same status (a cancel_requested
// republish repeats "running").
// TestAwaitKeepsItsConnection drives 200 Submit → Await → Get cycles
// through one Transport that keeps a single idle connection: every
// request must reuse the one connection the first opened. Await stops
// reading at the terminal line, so this holds only when the stream's
// end arrives with that line and the body is already at EOF.
func TestAwaitKeepsItsConnection(t *testing.T) {
	svc, err := serve.NewService(serve.Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(svc.Handler())
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		svc.Drain()
	})
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := New(ts.URL, WithHTTPClient(&http.Client{Transport: tr}))
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		job, err := c.Submit(ctx, quickSpec(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Await(ctx, job.ID)
		if err != nil || final.Status != StatusDone {
			t.Fatalf("await %s: %v, status %s", job.ID, err, final.Status)
		}
		if _, err := c.Get(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("200 cycles opened %d connections, want 1", n)
	}
}

func statuses(t *testing.T, w *Watcher) []Status {
	t.Helper()
	var out []Status
	for {
		j, err := w.Next()
		if err != nil {
			return out
		}
		if len(out) == 0 || out[len(out)-1] != j.Status {
			out = append(out, j.Status)
		}
		if j.Status.Terminal() {
			return out
		}
	}
}

func equalStatuses(got, want []Status) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func waitStatus(t *testing.T, c *Client, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, err := c.Get(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status == want {
			return
		}
		if job.Status.Terminal() {
			t.Fatalf("job %s ended %s while waiting for %s", id, job.Status, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestRetryHonorsRetryAfterWithFakeClock scripts a backpressured
// server: two 429s with Retry-After: 2, then acceptance. The
// injected sleeper records the waits instead of sleeping.
func TestRetryHonorsRetryAfterWithFakeClock(t *testing.T) {
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts <= 2 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(serve.ErrorBody{Error: serve.ErrorInfo{
				Code: serve.CodeQueueFull, Message: "scripted backpressure"}})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(Job{ID: "job-000001", Status: StatusQueued})
	}))
	defer ts.Close()

	var slept []time.Duration
	backpressures := 0
	c := New(ts.URL,
		client429Sleeper(&slept),
		WithBackpressureHook(func(time.Duration) { backpressures++ }))
	job, err := c.Submit(context.Background(), quickSpec(1))
	if err != nil {
		t.Fatalf("submit never recovered from 429s: %v", err)
	}
	if job.ID != "job-000001" {
		t.Fatalf("wrong job after retries: %+v", job)
	}
	if attempts != 3 || backpressures != 2 {
		t.Fatalf("attempts=%d backpressures=%d, want 3 and 2", attempts, backpressures)
	}
	if len(slept) != 2 || slept[0] != 2*time.Second || slept[1] != 2*time.Second {
		t.Fatalf("fake clock recorded %v, want [2s 2s] from Retry-After", slept)
	}

	// The retry budget is a ceiling: a permanently-full server fails
	// with queue_full after maxRetries sleeps.
	attempts = 0
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(serve.ErrorBody{Error: serve.ErrorInfo{
			Code: serve.CodeQueueFull, Message: "always full"}})
	}))
	defer always.Close()
	slept = nil
	c2 := New(always.URL, WithMaxRetries(3), client429Sleeper(&slept))
	_, err = c2.Submit(context.Background(), quickSpec(1))
	if !IsQueueFull(err) {
		t.Fatalf("exhausted retries returned %v, want queue_full", err)
	}
	if attempts != 4 || len(slept) != 3 {
		t.Fatalf("budget of 3 retries made %d attempts with %d sleeps", attempts, len(slept))
	}
}

// client429Sleeper injects a recording fake clock.
func client429Sleeper(slept *[]time.Duration) Option {
	return WithSleep(func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return ctx.Err()
	})
}

func TestTypedErrors(t *testing.T) {
	_, c := newTestService(t, serve.Config{Workers: 1, Queue: 4})
	ctx := context.Background()

	if _, err := c.Get(ctx, "job-999999"); !IsNotFound(err) {
		t.Fatalf("missing job returned %v, want not_found", err)
	}
	if _, err := c.Cancel(ctx, "job-999999"); !IsNotFound(err) {
		t.Fatalf("cancel of missing job returned %v, want not_found", err)
	}
	if _, err := c.Submit(ctx, JobSpec{Kind: "sort", N: 1}); !IsInvalidSpec(err) {
		t.Fatalf("bad spec returned %v, want invalid_spec", err)
	}

	// Cancel of a terminal job is the typed 409.
	job, err := c.Submit(ctx, quickSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if job, err = c.Await(ctx, job.ID); err != nil || job.Status != StatusDone {
		t.Fatalf("await: %v %v", job.Status, err)
	}
	_, err = c.Cancel(ctx, job.ID)
	if !IsTerminal(err) {
		t.Fatalf("cancel of done job returned %v, want terminal conflict", err)
	}
	if api := AsAPIError(err); api == nil || api.Status != http.StatusConflict {
		t.Fatalf("terminal conflict carries wrong status: %+v", AsAPIError(err))
	}

	// Healthz: ok while serving.
	h, err := c.Healthz(ctx)
	if err != nil || h.Status != "ok" || h.Draining {
		t.Fatalf("healthz: %+v, %v", h, err)
	}
}

func TestHealthzReportsDraining(t *testing.T) {
	svc, c := newTestService(t, serve.Config{Workers: 1, Queue: 4})
	svc.Drain()
	h, err := c.Healthz(context.Background())
	if !h.Draining || h.Status != "draining" {
		t.Fatalf("healthz after drain: %+v", h)
	}
	if !IsDraining(err) && AsAPIError(err) == nil {
		t.Fatalf("draining healthz should surface the 503: %v", err)
	}
}

func TestTraceAndMetricsAccessors(t *testing.T) {
	_, c := newTestService(t, serve.Config{Workers: 1, Queue: 8})
	ctx := context.Background()

	job, err := c.Submit(ctx, quickSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Await(ctx, job.ID); err != nil {
		t.Fatal(err)
	}

	trace, err := c.Trace(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 3 || trace[0].Event != TraceSubmitted {
		t.Fatalf("trace of a finished job = %+v, want submitted…terminal", trace)
	}
	if last := trace[len(trace)-1].Event; last != string(StatusDone) {
		t.Fatalf("trace ends with %q, want done", last)
	}
	if _, err := c.Trace(ctx, "job-999999"); !IsNotFound(err) {
		t.Fatalf("Trace of a missing job returned %v, want not_found", err)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "starmesh_jobs_admitted_total") {
		t.Fatalf("metrics exposition missing the admissions family:\n%.300s", text)
	}
}

func TestMetricsDisabledIsNotFound(t *testing.T) {
	_, c := newTestService(t, serve.Config{Workers: 1, Queue: 8, NoObs: true})
	if _, err := c.Metrics(context.Background()); !IsNotFound(err) {
		t.Fatalf("Metrics on a NoObs service returned %v, want not_found", err)
	}
}

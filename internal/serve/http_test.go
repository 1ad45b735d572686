package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"starmesh/internal/workload"
	"strings"
	"sync"
	"testing"
	"time"
)

func doJSON(t *testing.T, method, url string, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// requireCompact fails unless body is one compact JSON value ending
// in a newline: the v1 response body contract.
func requireCompact(t *testing.T, body []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		t.Fatalf("response body is not JSON: %v: %q", err, body)
	}
	buf.WriteByte('\n')
	if !bytes.Equal(buf.Bytes(), body) {
		t.Fatalf("response body is not compact JSON ending in a newline: %q", body)
	}
}

func TestHTTPJobLifecycle(t *testing.T) {
	svc, err := NewService(Config{Workers: 2, Queue: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Submit.
	code, data := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"kind":"sort","n":4,"dist":"reversed","seed":5}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %s", code, data)
	}
	var job Job
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Shape != "star:4" {
		t.Fatalf("bad submit response: %s", data)
	}
	requireCompact(t, data)

	// Poll to completion.
	deadline := time.Now().Add(30 * time.Second)
	for !job.Status.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.Status)
		}
		time.Sleep(time.Millisecond)
		code, data = doJSON(t, "GET", ts.URL+"/v1/jobs/"+job.ID, "")
		if code != http.StatusOK {
			t.Fatalf("poll returned %d: %s", code, data)
		}
		if err := json.Unmarshal(data, &job); err != nil {
			t.Fatal(err)
		}
	}
	if job.Status != StatusDone || job.Result == nil || !job.Result.OK || job.Result.UnitRoutes == 0 {
		t.Fatalf("job did not finish clean: %s", data)
	}
	requireCompact(t, data)

	// The standalone scenario of the same spec must agree exactly.
	sc, err := workload.ScenarioFor(JobSpec{Kind: KindSort, N: 4, Dist: "reversed", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if job.Result.UnitRoutes != want.UnitRoutes || job.Result.Conflicts != want.Conflicts || job.Result.OK != want.OK {
		t.Fatalf("HTTP result diverged from standalone run: %+v != %+v", job.Result, want)
	}

	// Listing includes it; cancel of a finished job conflicts.
	code, data = doJSON(t, "GET", ts.URL+"/v1/jobs?limit=10", "")
	if code != http.StatusOK || !bytes.Contains(data, []byte(job.ID)) {
		t.Fatalf("list missing job: %d %s", code, data)
	}
	requireCompact(t, data)
	if code, data = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+job.ID, ""); code != http.StatusConflict {
		t.Fatalf("cancel of done job returned %d, want 409", code)
	}
	requireCompact(t, data) // structured errors too

	// Stats reflect the work.
	code, data = doJSON(t, "GET", ts.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats returned %d", code)
	}
	var stats Stats
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Done < 1 || stats.UnitRoutes == 0 || len(stats.Pools) == 0 || !stats.Pooling {
		t.Fatalf("stats incomplete: %s", data)
	}
	requireCompact(t, data)

	// Health.
	if code, data = doJSON(t, "GET", ts.URL+"/v1/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	requireCompact(t, data)
}

func TestHTTPErrorMapping(t *testing.T) {
	svc, err := newService(Config{Queue: 1}, false) // no workers: queue stays full
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Bad JSON and bad specs → 400.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", `{`); code != http.StatusBadRequest {
		t.Fatalf("bad JSON returned %d, want 400", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"kind":"warp"}`); code != http.StatusBadRequest {
		t.Fatalf("bad kind returned %d, want 400", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"kind":"sort","n":4,"bogus":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field returned %d, want 400", code)
	}

	// Fill the queue → 429 with Retry-After.
	if code, data := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"kind":"sweep","n":3}`); code != http.StatusAccepted {
		t.Fatalf("first submit returned %d: %s", code, data)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(`{"kind":"sweep","n":3}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("overflow submit returned %d (Retry-After %q), want 429", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Unknown job → 404.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/job-999999", ""); code != http.StatusNotFound {
		t.Fatalf("unknown job returned %d, want 404", code)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/job-999999", ""); code != http.StatusNotFound {
		t.Fatalf("unknown cancel returned %d, want 404", code)
	}

	// Draining → 503 on submit and healthz.
	svc.Drain()
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"kind":"sweep","n":3}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining returned %d, want 503", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/healthz", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining returned %d, want 503", code)
	}
}

func TestHTTPCancelQueuedJob(t *testing.T) {
	svc, err := newService(Config{Queue: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	code, data := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"kind":"sweep","n":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	var job Job
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	code, data = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+job.ID, "")
	if code != http.StatusOK {
		t.Fatalf("cancel returned %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	if job.Status != StatusCanceled {
		t.Fatalf("cancel left status %s", job.Status)
	}
	svc.Drain()
}

// flushLog is a ResponseWriter that logs each Write, by the status of
// the job line written, and each Flush.
type flushLog struct {
	header http.Header
	wrote  chan struct{} // one receive per Write
	mu     sync.Mutex
	ops    []string
}

func (f *flushLog) Header() http.Header { return f.header }
func (f *flushLog) WriteHeader(int)     {}

func (f *flushLog) Write(b []byte) (int, error) {
	var j Job
	if err := json.Unmarshal(b, &j); err != nil {
		return 0, err
	}
	f.mu.Lock()
	f.ops = append(f.ops, "write "+string(j.Status))
	f.mu.Unlock()
	f.wrote <- struct{}{}
	return len(b), nil
}

func (f *flushLog) Flush() {
	f.mu.Lock()
	f.ops = append(f.ops, "flush")
	f.mu.Unlock()
}

// TestWatchLeavesTerminalLineUnflushed: the watch stream flushes every
// snapshot but the terminal one, which leaves with the chunked
// terminator when the handler returns — so no Flush may follow the
// terminal line, for a job already terminal at subscribe time and for
// one that finishes mid-stream.
func TestWatchLeavesTerminalLineUnflushed(t *testing.T) {
	svc, err := newService(Config{Workers: 1, Queue: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	watch := func(id string) (*flushLog, chan struct{}) {
		// Room for every line of a stream (three at most), so Write
		// never blocks the handler on the test.
		rec := &flushLog{header: http.Header{}, wrote: make(chan struct{}, 3)}
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/watch", nil)
		req.SetPathValue("id", id)
		done := make(chan struct{})
		go func() {
			defer close(done)
			svc.handleWatch(rec, req)
		}()
		return rec, done
	}
	run := func(id string) {
		now := time.Now()
		if _, ok := svc.store.claim(id, now, nil); !ok {
			t.Fatalf("claim %s failed", id)
		}
		svc.store.finish(id, ScenarioResult{OK: true}, nil, now)
	}
	submit := func() string {
		job, err := svc.Submit(JobSpec{Kind: KindSort, N: 4, Dist: "reversed", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return job.ID
	}
	check := func(name string, rec *flushLog, want ...string) {
		if !slices.Equal(rec.ops, want) {
			t.Errorf("%s: stream ops %q, want %q", name, rec.ops, want)
		}
	}

	id := submit()
	run(id)
	rec, done := watch(id)
	<-done
	check("terminal at subscribe", rec, "write done")

	id = submit()
	rec, done = watch(id)
	<-rec.wrote
	run(id)
	<-done
	check("finishes mid-stream", rec, "write queued", "flush", "write running", "flush", "write done")
}

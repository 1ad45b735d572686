// In-package coverage of the v1 HTTP surface: batch endpoint, watch
// stream, list queries and the lifecycle of ListenAndServe.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHTTPBatchEndpoint(t *testing.T) {
	svc, err := NewService(Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	code, data := doJSON(t, "POST", ts.URL+"/v1/jobs:batch",
		`{"specs":[{"kind":"sweep","n":3},{"kind":"broadcast","n":3}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch returned %d: %s", code, data)
	}
	var resp BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil || len(resp.Jobs) != 2 {
		t.Fatalf("batch response malformed: %s", data)
	}

	// Partial validation failure: 400, details name the index, no
	// admission.
	code, data = doJSON(t, "POST", ts.URL+"/v1/jobs:batch",
		`{"specs":[{"kind":"sweep","n":3},{"kind":"nope"}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid batch returned %d: %s", code, data)
	}
	var body ErrorBody
	if err := json.Unmarshal(data, &body); err != nil ||
		body.Error.Code != CodeInvalidSpec || len(body.Error.Details) != 1 || body.Error.Details[0].Index != 1 {
		t.Fatalf("invalid batch error malformed: %s", data)
	}

	// Malformed JSON: invalid_argument.
	if code, data = doJSON(t, "POST", ts.URL+"/v1/jobs:batch", `{`); code != http.StatusBadRequest {
		t.Fatalf("bad batch JSON returned %d: %s", code, data)
	}
}

func TestHTTPWatchStream(t *testing.T) {
	svc, err := newService(Config{Queue: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	job, err := svc.Submit(JobSpec{Kind: KindSweep, N: 3})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "ndjson") {
		t.Fatalf("watch answered %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	sc := bufio.NewScanner(resp.Body)

	next := func() Job {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("watch stream ended early: %v", sc.Err())
		}
		var j Job
		if err := json.Unmarshal(sc.Bytes(), &j); err != nil {
			t.Fatalf("watch line not a job: %q", sc.Text())
		}
		return j
	}
	if j := next(); j.Status != StatusQueued {
		t.Fatalf("watch initial snapshot is %s, want queued", j.Status)
	}
	// Drive the worker by hand, then the stream must deliver
	// running → done and end.
	go svc.runJob(job.ID)
	if j := next(); j.Status != StatusRunning {
		t.Fatalf("watch transition is %s, want running", j.Status)
	}
	if j := next(); j.Status != StatusDone {
		t.Fatalf("watch terminal is %s, want done", j.Status)
	}
	if sc.Scan() {
		t.Fatalf("watch stream continued past the terminal snapshot: %q", sc.Text())
	}

	// Watching a terminal job: one snapshot, then EOF.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	if !sc2.Scan() {
		t.Fatal("terminal watch delivered nothing")
	}
	if sc2.Scan() {
		t.Fatalf("terminal watch streamed a second line: %q", sc2.Text())
	}

	// Unknown job: typed 404.
	code, data := doJSON(t, "GET", ts.URL+"/v1/jobs/job-999999/watch", "")
	if code != http.StatusNotFound {
		t.Fatalf("watch of unknown job returned %d: %s", code, data)
	}
	svc.Drain()
}

func TestHTTPListQueries(t *testing.T) {
	svc, err := newService(Config{Queue: 16}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		if _, err := svc.Submit(JobSpec{Kind: KindSweep, N: 3}); err != nil {
			t.Fatal(err)
		}
	}
	code, data := doJSON(t, "GET", ts.URL+"/v1/jobs?status=queued&limit=2", "")
	if code != http.StatusOK {
		t.Fatalf("list returned %d: %s", code, data)
	}
	var page JobPage
	if err := json.Unmarshal(data, &page); err != nil || len(page.Jobs) != 2 || page.NextCursor == "" {
		t.Fatalf("list page malformed: %s", data)
	}
	code, data = doJSON(t, "GET", ts.URL+"/v1/jobs?cursor="+page.NextCursor, "")
	if code != http.StatusOK {
		t.Fatalf("cursor list returned %d: %s", code, data)
	}

	for _, bad := range []string{"?status=zombie", "?limit=-1", "?limit=x", "?limit=10abc", "?cursor=x"} {
		code, data = doJSON(t, "GET", ts.URL+"/v1/jobs"+bad, "")
		var body ErrorBody
		if code != http.StatusBadRequest || json.Unmarshal(data, &body) != nil || body.Error.Code != CodeInvalidArgument {
			t.Fatalf("list%s returned %d %s, want 400 invalid_argument", bad, code, data)
		}
	}
}

func TestListenAndServeLifecycle(t *testing.T) {
	// Bad address: the listener fails, the service still drains, the
	// error surfaces.
	svc, err := NewService(Config{Workers: 1, Queue: 4, DrainGrace: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ListenAndServe(context.Background(), "256.256.256.256:0"); err == nil {
		t.Fatal("bad listen address accepted")
	}
	if !svc.Draining() {
		t.Fatal("failed listen left the service undrained")
	}

	// Canceled context: graceful path, returns the context error.
	svc2, err := NewService(Config{Workers: 1, Queue: 4, DrainGrace: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc2.ListenAndServe(ctx, "127.0.0.1:0") }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe never returned after cancel")
	}

	// Close is Drain-shaped.
	svc3, err := NewService(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc3.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigEffectiveAndEngineOptions(t *testing.T) {
	eff := Config{}.Effective()
	if eff.Workers <= 0 || eff.Queue != 64 || eff.DrainGrace != 5*time.Second {
		t.Fatalf("effective defaults wrong: %+v", eff)
	}
	// Job machines take the simd defaults: compiled route plans on.
	if opts, err := (Config{}).EngineOptions(); err != nil || len(opts) != 0 {
		t.Fatalf("engine options: %v %v; want none", opts, err)
	}
}

// TestUnversionedRoutesAreNotFound pins that the API lives under /v1
// only: the pre-v1 spellings of submit, list, stats and health answer
// 404.
func TestUnversionedRoutesAreNotFound(t *testing.T) {
	svc, err := newService(Config{Queue: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for _, r := range []struct{ method, path, body string }{
		{"GET", "/jobs", ""},
		{"POST", "/jobs", `{"kind":"sweep","n":3}`},
		{"GET", "/stats", ""},
		{"GET", "/healthz", ""},
	} {
		if code, data := doJSON(t, r.method, ts.URL+r.path, r.body); code != http.StatusNotFound {
			t.Fatalf("%s %s returned %d, want 404: %s", r.method, r.path, code, data)
		}
	}
	if n := svc.Stats().Queued; n != 0 {
		t.Fatalf("an unversioned submit admitted %d jobs", n)
	}
}

// TestSubmitBatchImpossibleSizeIsInvalid: a batch that can never fit
// the queue is a 400, not retryable backpressure.
func TestSubmitBatchImpossibleSizeIsInvalid(t *testing.T) {
	svc, err := newService(Config{Queue: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	specs := make([]JobSpec, 3)
	for i := range specs {
		specs[i] = JobSpec{Kind: KindSweep, N: 3}
	}
	if _, err := svc.SubmitBatch(specs); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("impossible batch returned %v, want ErrInvalidSpec", err)
	}
}

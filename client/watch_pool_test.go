// Tests of the Watcher's recycled line reader: reconnects keep the
// reader but drop what a broken stream left in it, Close gives it back
// once, and Next after Close behaves as on any closed stream.
package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// A stream that breaks on a bad line leaves the rest of its last
// write in the reader. The reconnect must reuse the reader but not
// those bytes: the caller sees the second stream only.
func TestWatchReconnectReusesReaderWithoutStaleBytes(t *testing.T) {
	var attempts atomic.Int32
	job := Job{ID: "job-000001", Status: StatusQueued}
	running, stale, done := job, job, job
	running.Status = StatusRunning
	stale.Status, stale.Preemptions, stale.Error = StatusRunning, 9, "stale"
	done.Status = StatusDone
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/job-000001/watch", func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			// One write: a snapshot, a torn line and a snapshot the
			// Watcher must never deliver, all buffered together.
			w.Write([]byte(`{"id":"job-000001","status":"queued","created":"0001-01-01T00:00:00Z"}` + "\n" +
				`{"id":"job-000001","sta` + "\n"))
			watchSnap(t, w, stale)
			return
		}
		watchSnap(t, w, running)
		watchSnap(t, w, done)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	w, err := New(ts.URL, fastSleep()).Watch(context.Background(), "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	rd := w.rd
	var seen []Job
	for {
		j, err := w.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		seen = append(seen, j)
		if j.Status.Terminal() {
			break
		}
	}
	if len(seen) != 3 || seen[0].Status != StatusQueued || seen[1].Status != StatusRunning ||
		seen[1].Error != "" || seen[2].Status != StatusDone {
		t.Fatalf("saw %+v, want queued, running, done from the second stream", seen)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("server saw %d connections, want 2", got)
	}
	if w.rd != rd {
		t.Fatal("the reconnect replaced the line reader instead of reusing it")
	}
	w.Close()
}

// Close twice is safe and gives the reader back once; Next after Close
// reads nothing from the released reader. After a terminal snapshot it
// answers io.EOF; before one it reconnects, as on any broken stream,
// with a reader of its own that the next Close gives back.
func TestWatcherCloseAndNextAfterClose(t *testing.T) {
	var attempts atomic.Int32
	job := Job{ID: "job-000001", Status: StatusQueued}
	running := job
	running.Status = StatusRunning
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/job-000001/watch", func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			watchSnap(t, w, job)
			<-r.Context().Done() // held open until the client closes it
			return
		}
		watchSnap(t, w, running)
	})
	mux.HandleFunc("GET /v1/jobs/job-000002/watch", func(w http.ResponseWriter, r *http.Request) {
		done := Job{ID: "job-000002", Status: StatusDone}
		watchSnap(t, w, done)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL, fastSleep())

	// Terminal: EOF after Close, with no reconnect.
	w, err := c.Watch(context.Background(), "job-000002")
	if err != nil {
		t.Fatal(err)
	}
	if j, err := w.Next(); err != nil || j.Status != StatusDone {
		t.Fatalf("first Next: %+v, %v", j, err)
	}
	for range 2 {
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if w.rd != nil {
			t.Fatal("Close kept the line reader")
		}
	}
	if _, err := w.Next(); err != io.EOF {
		t.Fatalf("Next after Close of a finished watch: %v, want io.EOF", err)
	}
	if w.rd != nil {
		t.Fatal("Next after Close of a finished watch took a reader")
	}

	// Not terminal: Next after Close reconnects and goes on.
	w, err = c.Watch(context.Background(), "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if j, err := w.Next(); err != nil || j.Status != StatusQueued {
		t.Fatalf("first Next: %+v, %v", j, err)
	}
	w.Close()
	w.Close()
	j, err := w.Next()
	if err != nil || j.Status != StatusRunning {
		t.Fatalf("Next after Close: %+v, %v; want the running snapshot of a new stream", j, err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("server saw %d connections, want 2", got)
	}
	if w.rd == nil {
		t.Fatal("the reconnect after Close has no reader")
	}
	w.Close()
	if w.rd != nil {
		t.Fatal("Close kept the reconnect's reader")
	}
}

package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"starmesh/internal/serve"
)

// TestStatsAndOptions covers the remaining client surface: Stats,
// the HTTP-client and backoff options, exponential backoff without a
// Retry-After header, and the Watch error path.
func TestStatsAndOptions(t *testing.T) {
	_, c := newTestService(t, serve.Config{Workers: 1, Queue: 8})
	ctx := context.Background()

	job, err := c.Submit(ctx, quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Await(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || len(st.Kinds) != 1 || st.Kinds[0].Kind != "faultroute" {
		t.Fatalf("stats wrong: %+v", st)
	}

	// Watch of an unknown job is a typed 404.
	if _, err := c.Watch(ctx, "job-999999"); !IsNotFound(err) {
		t.Fatalf("watch of unknown job returned %v, want not_found", err)
	}
	// Await inherits it.
	if _, err := c.Await(ctx, "job-999999"); !IsNotFound(err) {
		t.Fatalf("await of unknown job returned %v, want not_found", err)
	}
}

func TestBackoffDoublesWithoutRetryAfter(t *testing.T) {
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts <= 3 {
			// No Retry-After header: the client falls back to its
			// exponential backoff.
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(serve.ErrorBody{Error: serve.ErrorInfo{
				Code: serve.CodeQueueFull, Message: "full"}})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(Job{ID: "job-000001", Status: StatusQueued})
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL, WithHTTPClient(&http.Client{}), client429Sleeper(&slept))
	c.backoff = 10 * time.Millisecond
	c.jitter = func(d time.Duration) time.Duration { return d } // pin the envelope
	if _, err := c.Submit(context.Background(), quickSpec(1)); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v (doubling)", i, slept[i], want[i])
		}
	}
}

// TestBackoffJitterBounds pins the default jitter: every exponential
// sleep lands in [d/2, d] of its envelope, and the draws are not all
// identical — the property that breaks up a post-restart thundering
// herd (many clients retrying in lockstep would otherwise all
// re-knock exactly backoff later, right as crash recovery re-admits
// a full queue).
func TestBackoffJitterBounds(t *testing.T) {
	c := New("http://unused")
	const d = 100 * time.Millisecond
	distinct := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		got := c.jitter(d)
		if got < d/2 || got > d {
			t.Fatalf("jitter(%v) = %v, want within [%v, %v]", d, got, d/2, d)
		}
		distinct[got] = true
	}
	if len(distinct) < 2 {
		t.Fatal("200 jitter draws were all identical — no jitter at all")
	}
	// Degenerate envelopes pass through unperturbed.
	if got := c.jitter(1); got != 1 {
		t.Fatalf("jitter(1ns) = %v, want 1ns", got)
	}
}

func TestAPIErrorRendering(t *testing.T) {
	err := &APIError{Status: 429, Code: CodeQueueFull, Message: "queue full"}
	if msg := err.Error(); msg == "" || !IsQueueFull(err) {
		t.Fatalf("APIError surface broken: %q", msg)
	}
	if AsAPIError(context.Canceled) != nil {
		t.Fatal("transport error classified as APIError")
	}
}

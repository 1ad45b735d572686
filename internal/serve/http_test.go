package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"starmesh/internal/workload"
	"strings"
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
	if code, _ = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+job.ID, ""); code != http.StatusConflict {
		t.Fatalf("cancel of done job returned %d, want 409", code)
	}

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

	// Health.
	if code, _ = doJSON(t, "GET", ts.URL+"/v1/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
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

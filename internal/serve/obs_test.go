// Observability tests: the /v1/metrics exposition is valid Prometheus
// text covering every instrumented subsystem, the HTTP middleware
// labels by route pattern (not raw URL) and threads request ids, the
// trace timeline narrates a job's life in order, and traces survive
// crash recovery bit-intact.
package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"starmesh/internal/obs"
)

// scrapeMetrics fetches and parses /v1/metrics, validating the
// exposition format on the way.
func scrapeMetrics(t *testing.T, tsURL string) *obs.Scrape {
	t.Helper()
	resp, err := http.Get(tsURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/v1/metrics content type %q, want %q", ct, obs.ContentType)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if err := obs.Validate(text); err != nil {
		t.Fatalf("exposition failed validation: %v\n%s", err, text)
	}
	sc, err := obs.ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestMetricsEndpointCoversEverySubsystem(t *testing.T) {
	svc, err := NewService(Config{Workers: 2, Queue: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := JobSpec{Kind: KindSort, N: 4, Dist: "uniform", Seed: 7}
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, job.ID)
	// A second job of the same shape exercises the pool-reuse counter.
	job2, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, job2.ID)
	// One 404 so the middleware has a non-2xx code to label.
	if resp, err := http.Get(ts.URL + "/v1/jobs/job-999999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	sc := scrapeMetrics(t, ts.URL)

	// Scheduler.
	if v, ok := sc.Value("starmesh_jobs_admitted_total", map[string]string{"kind": "sort"}); !ok || v != 2 {
		t.Fatalf("jobs_admitted_total{kind=sort} = %v, %t; want 2", v, ok)
	}
	if v, ok := sc.Value("starmesh_jobs_finished_total",
		map[string]string{"status": "done", "kind": "sort", "tenant": DefaultTenant}); !ok || v != 2 {
		t.Fatalf("jobs_finished_total{done,sort,anon} = %v, %t; want 2", v, ok)
	}
	if v, ok := sc.Value("starmesh_tenant_admitted_total", map[string]string{"tenant": DefaultTenant}); !ok || v != 2 {
		t.Fatalf("tenant_admitted_total{anon} = %v, %t; want 2", v, ok)
	}
	if v, ok := sc.Value("starmesh_tenant_queue_wait_seconds_count", map[string]string{"tenant": DefaultTenant}); !ok || v != 2 {
		t.Fatalf("tenant_queue_wait_seconds_count{anon} = %v, %t; want 2", v, ok)
	}
	if v, ok := sc.Value("starmesh_jobs_running", nil); !ok || v != 0 {
		t.Fatalf("jobs_running = %v, %t; want 0 after both jobs finished", v, ok)
	}
	if v, ok := sc.Value("starmesh_queue_capacity", nil); !ok || v != 16 {
		t.Fatalf("queue_capacity = %v, %t; want 16", v, ok)
	}
	if v, ok := sc.Value("starmesh_queue_wait_seconds_count", nil); !ok || v != 2 {
		t.Fatalf("queue_wait_seconds_count = %v, %t; want 2", v, ok)
	}

	// Pools: first sort job builds, second reuses.
	shape := spec.Shape()
	if v, ok := sc.Value("starmesh_pool_builds_total", map[string]string{"shape": shape}); !ok || v != 1 {
		t.Fatalf("pool_builds_total{%s} = %v, %t; want 1", shape, v, ok)
	}
	if v, ok := sc.Value("starmesh_pool_reuses_total", map[string]string{"shape": shape}); !ok || v != 1 {
		t.Fatalf("pool_reuses_total{%s} = %v, %t; want 1", shape, v, ok)
	}

	// Engine: the sort schedule routed something.
	if v, ok := sc.Value("starmesh_engine_unit_routes_total", nil); !ok || v <= 0 {
		t.Fatalf("engine_unit_routes_total = %v, %t; want > 0", v, ok)
	}

	// HTTP: the 404 above landed on the {id} route with its pattern,
	// not the raw URL.
	if v, ok := sc.Value("starmesh_http_requests_total",
		map[string]string{"route": "/v1/jobs/{id}", "method": "GET", "code": "404"}); !ok || v != 1 {
		t.Fatalf("http_requests_total{/v1/jobs/{id},GET,404} = %v, %t; want 1", v, ok)
	}

	// Watch / durability families exist even when idle or in-memory.
	if _, ok := sc.Value("starmesh_watch_subscribers", nil); !ok {
		t.Fatal("watch_subscribers family missing")
	}
	if v, ok := sc.Value("starmesh_wal_degraded", nil); !ok || v != 0 {
		t.Fatalf("wal_degraded = %v, %t; want 0 on the in-memory store", v, ok)
	}
}

func TestMetricsDisabledAnswers404(t *testing.T) {
	svc, err := NewService(Config{Workers: 1, Queue: 4, NoObs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	if svc.MetricsRegistry() != nil {
		t.Fatal("NoObs service still built a registry")
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/metrics with NoObs returned %d, want 404", resp.StatusCode)
	}
	// The service still works without its instruments.
	job, err := svc.Submit(JobSpec{Kind: KindSweep, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, svc, job.ID); got.Status != StatusDone {
		t.Fatalf("NoObs job finished %s: %s", got.Status, got.Error)
	}
}

func TestHTTPMiddlewareRequestID(t *testing.T) {
	svc, err := NewService(Config{Workers: 1, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// A generated id comes back on the response.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id == "" {
		t.Fatal("no X-Request-Id on the response")
	}

	// A caller-supplied id is echoed verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id != "caller-7" {
		t.Fatalf("X-Request-Id = %q, want the caller's caller-7", id)
	}
}

func TestTraceTimelineNarratesTheJob(t *testing.T) {
	svc, err := NewService(Config{Workers: 1, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	job, err := svc.Submit(JobSpec{Kind: KindSort, N: 4, Dist: "uniform", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, svc, job.ID)
	if final.Status != StatusDone {
		t.Fatalf("job finished %s: %s", final.Status, final.Error)
	}

	var events []string
	for _, e := range final.Trace {
		events = append(events, e.Event)
	}
	want := []string{TraceSubmitted, TraceClaimed, TraceMachineReady, string(StatusDone)}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("trace events %v, want %v", events, want)
	}
	// Timestamps are monotone and every post-submit event carries the
	// duration since its predecessor.
	for i, e := range final.Trace {
		if i == 0 {
			if e.DurNs != 0 {
				t.Fatalf("submitted event has dur_ns %d, want 0", e.DurNs)
			}
			continue
		}
		prev := final.Trace[i-1]
		if e.At.Before(prev.At) {
			t.Fatalf("trace timestamps not monotone: %v before %v", e.At, prev.At)
		}
		if want := e.At.Sub(prev.At).Nanoseconds(); e.DurNs != want {
			t.Fatalf("event %s dur_ns = %d, want %d (gap to previous)", e.Event, e.DurNs, want)
		}
	}
	if !strings.Contains(final.Trace[2].Detail, "shape=") {
		t.Fatalf("machine_ready detail %q does not name the shape", final.Trace[2].Detail)
	}
}

// tracesEqual compares timelines event by event, using time.Equal
// for the timestamps — the live trace carries a monotonic clock
// reading and a wall-clock location that never survive the WAL's
// JSON round-trip, and neither is part of the contract.
func tracesEqual(a, b []TraceEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Event != b[i].Event || !a[i].At.Equal(b[i].At) ||
			a[i].DurNs != b[i].DurNs || a[i].Detail != b[i].Detail {
			return false
		}
	}
	return true
}

func TestTraceSurvivesCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, nil)
	now := time.Now()

	// A job that completes before the crash: its trace must replay
	// bit-intact.
	done := ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
	if _, ok := ds.claim(done.ID, now.Add(time.Millisecond), nil); !ok {
		t.Fatal("claim failed")
	}
	ds.trace(done.ID, now.Add(2*time.Millisecond), TraceMachineReady, "shape=star:3 built")
	ds.finish(done.ID, ScenarioResult{UnitRoutes: 9, OK: true}, nil, now.Add(3*time.Millisecond))
	doneBefore, _ := ds.get(done.ID)

	// A job caught running at the crash: it re-queues, and its trace
	// restarts from submitted with a recovered marker — the old
	// claimed/machine_ready events describe an execution that never
	// finished and would mislead.
	interrupted := ds.add(JobSpec{Kind: KindSweep, N: 4}, DefaultTenant, now)
	if _, ok := ds.claim(interrupted.ID, now.Add(time.Millisecond), nil); !ok {
		t.Fatal("claim failed")
	}
	ds.trace(interrupted.ID, now.Add(2*time.Millisecond), TraceMachineReady, "shape=star:4 built")

	ds.freeze() // crash

	ds2 := openDurable(t, dir, nil)
	defer ds2.close()

	doneAfter, ok := ds2.get(done.ID)
	if !ok {
		t.Fatal("done job vanished across recovery")
	}
	if !tracesEqual(doneAfter.Trace, doneBefore.Trace) {
		t.Fatalf("terminal trace drifted across recovery:\nbefore %+v\nafter  %+v",
			doneBefore.Trace, doneAfter.Trace)
	}
	if n := len(doneAfter.Trace); n != 4 || doneAfter.Trace[n-1].Event != string(StatusDone) {
		t.Fatalf("terminal trace malformed after recovery: %+v", doneAfter.Trace)
	}

	re, _ := ds2.get(interrupted.ID)
	var events []string
	for _, e := range re.Trace {
		events = append(events, e.Event)
	}
	if want := []string{TraceSubmitted, TraceRecovered}; !reflect.DeepEqual(events, want) {
		t.Fatalf("re-queued trace events %v, want %v", events, want)
	}
}

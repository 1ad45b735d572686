package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRequestIDMatchesSprintf holds the request and job id formatter
// to the fmt.Sprintf calls it replaced, past six digits too.
func TestRequestIDMatchesSprintf(t *testing.T) {
	for _, n := range []int64{0, 1, 7, 42, 99_999, 100_000, 999_999, 1_000_000, 1_234_567, 9_223_372_036_854_775_807} {
		for _, prefix := range []string{"req-", "job-"} {
			if got, want := seqID(prefix, n), fmt.Sprintf(prefix+"%06d", n); got != want {
				t.Errorf("seqID(%q, %d) = %q, want %q", prefix, n, got, want)
			}
		}
	}
}

// logBuffer collects a JSON handler's lines; the handler writes from
// the service's goroutines.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// lines parses every line logged with message msg.
func (b *logBuffer) lines(t *testing.T, msg string) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(b.buf.Bytes()))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("log line %q: %v", sc.Text(), err)
		}
		if line["msg"] == msg {
			out = append(out, line)
		}
	}
	return out
}

func newLoggedService(t *testing.T, level slog.Level) (*Service, *logBuffer) {
	t.Helper()
	logs := &logBuffer{}
	svc, err := NewService(Config{Workers: 1, Queue: 4,
		Logger: slog.New(slog.NewJSONHandler(logs, &slog.HandlerOptions{Level: level}))})
	if err != nil {
		t.Fatal(err)
	}
	return svc, logs
}

// requireAttrs fails unless line carries every attribute in want, with
// the given value where it is not nil.
func requireAttrs(t *testing.T, line map[string]any, want map[string]any) {
	t.Helper()
	for k, v := range want {
		got, ok := line[k]
		if !ok || (v != nil && got != v) {
			t.Fatalf("log line %v: attribute %s = %v, want %v", line, k, got, v)
		}
	}
}

// TestDebugLogsCarryCorrelatingAttributes runs a job through the HTTP
// API under a Debug logger: every request line names its request id
// and route, and the job's claimed and finished lines its job id,
// kind and status.
func TestDebugLogsCarryCorrelatingAttributes(t *testing.T) {
	svc, logs := newLoggedService(t, slog.LevelDebug)
	ts := httptest.NewServer(svc.Handler())
	_, body, hdr := doJSONKey(t, "POST", ts.URL+"/v1/jobs", "", `{"kind":"sweep","n":4}`)
	submitID := hdr.Get("X-Request-Id")
	var job Job
	if err := DecodeJob(body, &job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _ := svc.Job(job.ID)
		if j.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", job.ID)
		}
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/job-999999", nil)
	req.Header.Set("X-Request-Id", "caller-9")
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	ts.Close() // waits for the handlers, and so for their log lines
	svc.Drain()

	reqLines := logs.lines(t, "http request")
	if len(reqLines) != 2 {
		t.Fatalf("%d http request lines, want 2", len(reqLines))
	}
	requireAttrs(t, reqLines[0], map[string]any{"level": "DEBUG", "request_id": submitID,
		"method": "POST", "route": "/v1/jobs", "status": float64(http.StatusAccepted), "dur_ms": nil})
	if !strings.HasPrefix(submitID, "req-") {
		t.Fatalf("generated request id %q", submitID)
	}
	requireAttrs(t, reqLines[1], map[string]any{"level": "WARN", "request_id": "caller-9",
		"method": "GET", "route": "/v1/jobs/{id}", "status": float64(http.StatusNotFound)})

	claimed := logs.lines(t, "job claimed")
	finished := logs.lines(t, "job finished")
	if len(claimed) != 1 || len(finished) != 1 {
		t.Fatalf("%d job claimed and %d job finished lines, want 1 each", len(claimed), len(finished))
	}
	requireAttrs(t, claimed[0], map[string]any{"job_id": job.ID, "kind": KindSweep, "shape": "star:4"})
	requireAttrs(t, finished[0], map[string]any{"level": "DEBUG", "job_id": job.ID, "kind": KindSweep,
		"status": string(StatusDone), "unit_routes": nil, "conflicts": nil})
}

// TestInfoLogsJobsThatEndInError checks the lines an Info logger
// keeps: none for a request or a job that went well, and the finished
// line, with its job id, status and error, for a job that ended in
// one (here canceled mid-run).
func TestInfoLogsJobsThatEndInError(t *testing.T) {
	svc, logs := newLoggedService(t, slog.LevelInfo)
	quick, err := svc.Submit(JobSpec{Kind: KindSweep, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := svc.Submit(JobSpec{Kind: KindSweep, N: 4, Trials: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if j, _ := svc.Job(slow.ID); j.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", slow.ID)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
	svc.Drain()

	if claimed := logs.lines(t, "job claimed"); len(claimed) != 0 {
		t.Fatalf("an Info logger kept %d job claimed lines", len(claimed))
	}
	finished := logs.lines(t, "job finished")
	if len(finished) != 1 {
		t.Fatalf("%d job finished lines, want 1 (quick job %s, canceled job %s)", len(finished), quick.ID, slow.ID)
	}
	requireAttrs(t, finished[0], map[string]any{"level": "INFO", "job_id": slow.ID, "kind": KindSweep,
		"status": string(StatusCanceled), "error": "context canceled"})
}

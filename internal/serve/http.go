// HTTP JSON API over the Service — the versioned v1 contract.
// Handler returns a mux suitable for http.Server or httptest;
// ListenAndServe wires it to a listener with graceful drain on
// context cancellation.
//
// Routes (see doc.go for the full reference):
//
//	POST   /v1/jobs           submit one spec            → 202 Job
//	POST   /v1/jobs:batch     atomic multi-spec submit   → 202 {jobs}
//	GET    /v1/jobs           list: status filter+cursor → 200 JobPage
//	GET    /v1/jobs/{id}      job snapshot               → 200 Job
//	DELETE /v1/jobs/{id}      cancel queued OR running   → 200 Job
//	GET    /v1/jobs/{id}/watch stream status transitions → 200 ndjson
//	GET    /v1/stats          aggregated service view    → 200 Stats
//	GET    /v1/healthz        liveness + drain state     → 200/503 Health
//
// Errors are structured (ErrorBody) with the code taxonomy of
// errors.go, mapped to HTTP statuses in exactly one place.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"starmesh/internal/obs"
)

// Health is the /v1/healthz body.
type Health struct {
	Status   string `json:"status"` // "ok" or "draining"
	Draining bool   `json:"draining"`
	// Durability reports the job-store backend: store kind, WAL path,
	// last snapshot time and the jobs recovered / re-executed at boot
	// — so a health probe can tell a fresh process from one that just
	// replayed a crash, and spot a degraded WAL.
	Durability Durability `json:"durability"`
}

// Handler returns the service's HTTP API. Every route lives under /v1
// and is wrapped at registration with the metrics/logging middleware
// (see instrument), labeled by its route pattern — never by the raw
// URL, which would explode the metric cardinality with job ids.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(method, route string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+route, s.instrument(route, h))
	}
	handle("POST", "/v1/jobs", s.handleSubmit)
	handle("POST", "/v1/jobs:batch", s.handleSubmitBatch)
	handle("GET", "/v1/jobs", s.handleList)
	handle("GET", "/v1/jobs/{id}", s.handleJob)
	handle("DELETE", "/v1/jobs/{id}", s.handleCancel)
	handle("GET", "/v1/jobs/{id}/watch", s.handleWatch)
	handle("GET", "/v1/stats", s.handleStats)
	handle("GET", "/v1/healthz", s.handleHealthz)
	handle("GET", "/v1/metrics", s.handleMetrics)
	handle("GET", "/v1/cluster", s.handleCluster)
	handle("POST", "/v1/drain", s.handleDrain)
	return mux
}

// nextRequestID numbers requests process-wide for log correlation.
var nextRequestID atomic.Int64

// statusWriter captures the response status for the middleware while
// passing Flusher through — the watch stream depends on flushing.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route with the observability middleware:
// a request id (generated or propagated from X-Request-Id, echoed
// back, and carried by the request's log line), the per-route
// request counter and latency histogram labeled by route pattern,
// the in-flight gauge, and a structured log line per request, built
// only when the logger keeps its level.
func (s *Service) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = seqID("req-", nextRequestID.Add(1))
		}
		w.Header().Set("X-Request-Id", reqID)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		if s.met != nil {
			s.met.httpInFlight.Add(1)
		}
		h(sw, r)
		elapsed := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if s.met != nil {
			s.met.httpInFlight.Add(-1)
			s.met.observeHTTP(route, r.Method, sw.status, elapsed)
		}
		level := slog.LevelDebug
		switch {
		case sw.status >= 500:
			level = slog.LevelError
		case sw.status >= 400:
			level = slog.LevelWarn
		}
		if s.logs(level) {
			s.log.With("request_id", reqID).Log(context.Background(), level, "http request",
				"method", r.Method, "route", route, "status", sw.status, "dur_ms", elapsed.Milliseconds())
		}
	}
}

// handleMetrics serves the Prometheus text exposition. With metrics
// disabled (Config.NoObs) the route answers 404 — scrapers should
// see a hard failure, not an empty exposition that looks like a
// healthy service with zero traffic.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.MetricsRegistry()
	if reg == nil {
		writeErrorCode(w, CodeNotFound, "metrics are disabled (NoObs)", nil)
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	w.WriteHeader(http.StatusOK)
	_ = reg.WriteText(w)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := decodeRequest(r.Body, r.ContentLength, &spec); err != nil {
		writeErrorCode(w, CodeInvalidArgument, fmt.Sprintf("bad job spec: %v", err), nil)
		return
	}
	job, err := s.SubmitWithKey(r.Header.Get("X-API-Key"), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJob(w, http.StatusAccepted, &job)
}

// maxCanonicalRequest bounds the request bodies decodeRequest reads
// whole to try the codec on: a spec is under 300 bytes, and the
// service's default queue holds 64.
const maxCanonicalRequest = 32 << 10

// decodeRequest decodes a request body into v, a *JobSpec or a
// *BatchRequest, with the result of a json.Decoder with
// DisallowUnknownFields reading the same body. size is the body's
// declared length (-1 when unknown). A body of known length up to
// maxCanonicalRequest is read whole and, when it holds the codec's
// canonical form (what the typed client sends), decoded without
// reflection. Any other body goes to the json.Decoder, which sees the
// bytes it would have seen alone: the prefix already read, then the
// rest of the body. A longer body, or one of unknown length, is not
// read ahead of the decoder.
func decodeRequest(body io.Reader, size int64, v any) error {
	var prefix []byte
	if 0 <= size && size <= maxCanonicalRequest {
		bp := bodyBufs.Get().(*[]byte)
		defer bodyBufs.Put(bp)
		*bp = slices.Grow((*bp)[:0], int(size))
		n, _ := io.ReadFull(body, (*bp)[:size])
		prefix = (*bp)[:n]
		if int64(n) == size && decodeCanonical(prefix, v) {
			return nil
		}
	}
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(prefix), body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// BatchRequest is the POST /v1/jobs:batch body.
type BatchRequest struct {
	Specs []JobSpec `json:"specs"`
}

// BatchResponse is the POST /v1/jobs:batch success body: one queued
// job per spec, in spec order.
type BatchResponse struct {
	Jobs []Job `json:"jobs"`
}

func (s *Service) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeRequest(r.Body, r.ContentLength, &req); err != nil {
		writeErrorCode(w, CodeInvalidArgument, fmt.Sprintf("bad batch request: %v", err), nil)
		return
	}
	jobs, err := s.SubmitBatchWithKey(r.Header.Get("X-API-Key"), req.Specs)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, BatchResponse{Jobs: jobs})
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	q := ListQuery{Cursor: r.URL.Query().Get("cursor")}
	if st := r.URL.Query().Get("status"); st != "" {
		switch Status(st) {
		case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCanceled:
			q.Status = Status(st)
		default:
			writeErrorCode(w, CodeInvalidArgument, fmt.Sprintf("bad status filter %q", st), nil)
			return
		}
	}
	if lim := r.URL.Query().Get("limit"); lim != "" {
		v, err := strconv.Atoi(lim)
		if err != nil || v < 0 {
			writeErrorCode(w, CodeInvalidArgument, fmt.Sprintf("bad limit %q", lim), nil)
			return
		}
		q.Limit = v
	}
	page, err := s.ListJobs(q)
	if err != nil {
		writeErrorCode(w, CodeInvalidArgument, err.Error(), nil)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, ErrNotFound)
		return
	}
	writeJob(w, http.StatusOK, &job)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJob(w, http.StatusOK, &job)
}

// handleWatch streams a job's status transitions as newline-delimited
// JSON snapshots: the current state first, then every transition,
// closing after the terminal one. Cancellation mid-stream (client
// disconnect) just unsubscribes. Every line but the terminal one is
// flushed as it is written. The terminal line is left in the buffer
// and the handler returns, so net/http sends it in the same write as
// the chunked terminator: a client that stops reading at the
// terminal line then still finds the body at EOF, and its connection
// goes back to the keep-alive pool instead of being closed.
func (s *Service) handleWatch(w http.ResponseWriter, r *http.Request) {
	initial, ch, stop, err := s.Watch(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	emit := func(j Job) bool {
		line := append(appendJob((*bp)[:0], &j), '\n')
		*bp = line // every line of the stream reuses the grown buffer
		if _, err := w.Write(line); err != nil {
			return false
		}
		if flusher != nil && !j.Status.Terminal() {
			flusher.Flush()
		}
		return true
	}
	if !emit(initial) || initial.Status.Terminal() || ch == nil {
		return
	}
	for {
		select {
		case j, ok := <-ch:
			if !ok {
				// Channel closed on the terminal transition; the final
				// snapshot was delivered before the close (or dropped
				// under pathological buffering) — re-read to be sure the
				// stream always ends on a terminal snapshot.
				if last, ok := s.Job(initial.ID); ok && last.Status.Terminal() {
					emit(last)
				}
				return
			}
			if !emit(j) || j.Status.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleStats serves the aggregated view; ?window=30s (a Go
// duration) sets the trailing window of the per-tenant leaderboard.
func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	window := time.Duration(0)
	if q := r.URL.Query().Get("window"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			writeErrorCode(w, CodeInvalidArgument,
				fmt.Sprintf("bad window %q (want a positive Go duration like 30s)", q), nil)
			return
		}
		window = d
	}
	writeJSON(w, http.StatusOK, s.StatsWindow(window))
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok"}
	if s.Draining() {
		h = Health{Status: "draining", Draining: true}
	}
	h.Durability = s.Durability()
	status := http.StatusOK
	if h.Draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// writeJSON writes v as a compact JSON body ending in a newline.
// JobPage and BatchResponse bodies go through the job codec
// (jobjson.go), the rest through encoding/json; both write the same
// bytes json.Encoder would. Job bodies take writeJob, which does not
// box the job.
func writeJSON(w http.ResponseWriter, status int, v any) {
	switch v := v.(type) {
	case JobPage:
		writeBody(w, status, func(b []byte) []byte { return appendJobPage(b, &v) })
	case BatchResponse:
		writeBody(w, status, func(b []byte) []byte {
			return append(appendJobs(append(b, `{"jobs":`...), v.Jobs), '}')
		})
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(v)
	}
}

// writeJob writes j as writeJSON would.
func writeJob(w http.ResponseWriter, status int, j *Job) {
	writeBody(w, status, func(b []byte) []byte { return appendJob(b, j) })
}

// writeBody writes the JSON body that appendBody appends, and a
// newline, from a recycled buffer.
func writeBody(w http.ResponseWriter, status int, appendBody func(b []byte) []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	*bp = append(appendBody((*bp)[:0]), '\n')
	_, _ = w.Write(*bp)
}

// bodyBufs recycles the buffers of response bodies, watch lines and
// request bodies across requests, as encoding/json recycles its own.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeError maps a service error through the taxonomy — the single
// error → status translation of the HTTP layer.
func writeError(w http.ResponseWriter, err error) {
	code := codeOf(err)
	var details []BatchItemError
	var batch *BatchError
	if errors.As(err, &batch) {
		details = batch.Items
	}
	// A rate-limit rejection knows exactly how long until the token
	// bucket covers the request; say so instead of the generic 1s.
	var rl *RateLimitError
	if errors.As(err, &rl) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(rl.Wait)))
	}
	writeErrorCode(w, code, err.Error(), details)
}

func writeErrorCode(w http.ResponseWriter, code ErrorCode, msg string, details []BatchItemError) {
	if (code == CodeQueueFull || code == CodeRateLimited) && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code.HTTPStatus(), ErrorBody{Error: ErrorInfo{
		Code:    code,
		Message: msg,
		Details: details,
	}})
}

// ListenAndServe runs the HTTP API on addr until ctx is canceled,
// then shuts down gracefully in drain-visible order: admission stops
// first (health checks report draining while in-flight requests
// finish), the listener closes, and the service drains — admitted
// jobs get Config.DrainGrace to complete before the running ones are
// canceled at their next checkpoint.
func (s *Service) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		s.Drain()
		return err
	case <-s.drainRequested:
		// POST /v1/drain: same graceful path as cancellation — by now
		// the handler has already stopped admission and extracted the
		// queued backlog for migration.
	case <-ctx.Done():
	}
	// Drain-visible order: admission stops and the service drains
	// WHILE the listener keeps answering — external health checks see
	// "draining" (503) for the whole window instead of a dead socket,
	// and watch streams observe their jobs' terminal transitions. Only
	// then does the listener close (with a short grace for in-flight
	// requests).
	s.beginDrain()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), s.cfg.DrainGrace)
	defer cancelDrain()
	err := s.Shutdown(drainCtx)
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if serr := srv.Shutdown(shutdownCtx); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	return ctx.Err()
}

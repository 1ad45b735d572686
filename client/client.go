// Package client is the typed Go client of the starmesh job
// service's v1 API. It is the single supported way to talk to the
// service over HTTP: the CLI's remote subcommands, the load
// generator and the examples all dispatch through it, and the wire
// types are shared with the server (type aliases), so client and
// service can never disagree about the contract.
//
//	c := client.New("http://localhost:8080")
//	job, err := c.Submit(ctx, client.JobSpec{Kind: "sort", N: 5, Seed: 42})
//	final, err := c.Await(ctx, job.ID)
//
// Submissions transparently retry on 429 backpressure, honoring the
// server's Retry-After header and otherwise backing off
// exponentially — 100ms doubling up to 2s, each sleep drawn
// uniformly from [d/2, d] (see WithMaxRetries).
// Every non-2xx response becomes a *client.APIError carrying the
// service's typed error code.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"starmesh/internal/serve"
)

// Client talks to one starmesh job service.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int
	backoff    time.Duration
	jitter     func(d time.Duration) time.Duration
	sleep      func(ctx context.Context, d time.Duration) error
	onBackoff  func(d time.Duration)
	apiKey     string
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default
// http.DefaultClient-equivalent with no special timeouts; watch
// streams are long-lived, so avoid a global client timeout).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxRetries bounds 429 retries per call (default 4; negative
// retries forever — closed-loop drivers that want admission to
// eventually succeed).
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithSleep substitutes the retry sleeper — tests inject a fake
// clock, load harnesses a fast poll. The sleeper must honor ctx.
func WithSleep(fn func(ctx context.Context, d time.Duration) error) Option {
	return func(c *Client) { c.sleep = fn }
}

// WithBackpressureHook registers a callback invoked once per 429
// received (before the retry sleep) — load generators count the
// backpressure they provoke.
func WithBackpressureHook(fn func(d time.Duration)) Option {
	return func(c *Client) { c.onBackoff = fn }
}

// WithAPIKey sends the key as X-API-Key on every request, selecting
// the tenant whose rate limits, queue quota and fair-queueing weight
// govern this client's traffic. Without a key the client is the
// shared anonymous tenant (rejected outright when the server runs
// with require_key).
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// New returns a client for the service at baseURL (e.g.
// "http://localhost:8080"). The client always speaks the /v1 routes.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:       baseURL,
		hc:         &http.Client{},
		maxRetries: 4,
		backoff:    100 * time.Millisecond,
	}
	// Equal jitter: a backoff d sleeps uniformly in [d/2, d], which
	// decorrelates the retry storm a fleet of clients raises after a
	// service restart.
	c.jitter = func(d time.Duration) time.Duration {
		if d <= 1 {
			return d
		}
		half := d / 2
		return half + rand.N(half+1)
	}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Submit admits one job spec, returning its queued snapshot. 429
// responses are retried per the client's retry policy.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (Job, error) {
	var job Job
	err := c.doRetry(ctx, http.MethodPost, "/v1/jobs", serve.AppendSpec(nil, &spec),
		func(data []byte) error { return serve.DecodeJob(data, &job) })
	return job, err
}

// SubmitBatch admits several specs atomically: every spec becomes a
// queued job (returned in spec order) or none does — one invalid
// spec rejects the whole batch with an APIError whose Details name
// each offending index.
func (c *Client) SubmitBatch(ctx context.Context, specs []JobSpec) ([]Job, error) {
	var resp serve.BatchResponse
	err := c.doRetry(ctx, http.MethodPost, "/v1/jobs:batch",
		serve.AppendBatchRequest(nil, &serve.BatchRequest{Specs: specs}), decodeInto(&resp))
	return resp.Jobs, err
}

// Get returns a job snapshot by id.
func (c *Client) Get(ctx context.Context, id string) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil,
		func(data []byte) error { return serve.DecodeJob(data, &job) })
	return job, err
}

// ListOptions filters and paginates List.
type ListOptions struct {
	// Status keeps only jobs in that state ("" = all).
	Status Status
	// Limit is the page size (0 = server default of 100).
	Limit int
	// Cursor resumes a walk from a previous page's NextCursor.
	Cursor string
}

// List returns one page of the job listing, newest first. Walk the
// full listing by feeding each page's NextCursor back in (or use
// ListAll).
func (c *Client) List(ctx context.Context, opts ListOptions) (JobPage, error) {
	q := url.Values{}
	if opts.Status != "" {
		q.Set("status", string(opts.Status))
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Cursor != "" {
		q.Set("cursor", opts.Cursor)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page JobPage
	err := c.do(ctx, http.MethodGet, path, nil, decodeInto(&page))
	return page, err
}

// ListAll walks the cursor chain to exhaustion and returns every
// matching job, newest first.
func (c *Client) ListAll(ctx context.Context, opts ListOptions) ([]Job, error) {
	var all []Job
	for {
		page, err := c.List(ctx, opts)
		if err != nil {
			return all, err
		}
		all = append(all, page.Jobs...)
		if page.NextCursor == "" {
			return all, nil
		}
		opts.Cursor = page.NextCursor
	}
}

// Cancel aborts a job: queued jobs cancel immediately, running jobs
// at their next cooperative checkpoint (the returned snapshot may
// still show running with cancel_requested; Watch or Await observes
// the terminal transition). Terminal jobs return a conflict
// (IsTerminal).
func (c *Client) Cancel(ctx context.Context, id string) (Job, error) {
	var job Job
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil,
		func(data []byte) error { return serve.DecodeJob(data, &job) })
	return job, err
}

// Trace returns a job's trace timeline — the ordered lifecycle
// events (submitted, claimed, machine_ready, … terminal status) with
// per-step durations. A convenience over Get for callers that only
// want the timeline.
func (c *Client) Trace(ctx context.Context, id string) ([]TraceEvent, error) {
	job, err := c.Get(ctx, id)
	if err != nil {
		return nil, err
	}
	return job.Trace, nil
}

// Metrics returns the service's Prometheus text exposition
// (GET /v1/metrics) verbatim. A service running with metrics
// disabled answers 404 (IsNotFound).
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode/100 != 2 {
		return "", apiErrorFrom(resp, data)
	}
	return string(data), nil
}

// Stats returns the aggregated service view.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, decodeInto(&st))
	return st, err
}

// Healthz probes the service. A draining service answers 503 but
// with a well-formed Health body, so Healthz returns the decoded
// Health value AND a draining-coded APIError — callers distinguish
// "down" (error only) from "draining" (both).
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, decodeInto(&h))
	if err != nil {
		if api := AsAPIError(err); api != nil && api.Status == http.StatusServiceUnavailable {
			// The 503 body is the Health document itself, not an error
			// envelope.
			if jsonErr := json.Unmarshal([]byte(api.Message), &h); jsonErr == nil && h.Draining {
				api.Code = CodeDraining
			}
		}
	}
	return h, err
}

// Await watches a job to its terminal status and returns the final
// snapshot — a convenience over Watch.
func (c *Client) Await(ctx context.Context, id string) (Job, error) {
	w, err := c.Watch(ctx, id)
	if err != nil {
		return Job{}, err
	}
	defer w.Close()
	var last Job
	for {
		j, err := w.Next()
		if err == io.EOF {
			if !last.Status.Terminal() {
				return last, fmt.Errorf("client: watch stream of %s ended before a terminal status (%s)", id, last.Status)
			}
			return last, nil
		}
		if err != nil {
			return last, err
		}
		last = j
		if last.Status.Terminal() {
			return last, nil
		}
	}
}

// do issues one request, sending body (when non-nil) as its JSON
// body, and hands a 2xx response's body to decode (when non-nil).
// The response is read into a recycled buffer that is valid only
// until decode returns: the decoders, like apiErrorFrom, copy out
// what they keep. The request body is never recycled, since net/http
// may still read it after Do returns. Non-2xx responses become
// *APIError.
func (c *Client) do(ctx context.Context, method, path string, body []byte, decode func(data []byte) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.apiKey != "" {
		req.Header.Set("X-API-Key", c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := responseBufs.Get().(*bytes.Buffer)
	defer putResponseBuf(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiErrorFrom(resp, buf.Bytes())
	}
	if decode == nil {
		return nil
	}
	return decode(buf.Bytes())
}

// decodeInto returns a decode function for do that reads a response
// into v, a pointer to a zero value, with serve.DecodeJSON.
func decodeInto(v any) func(data []byte) error {
	return func(data []byte) error { return serve.DecodeJSON(data, v) }
}

// responseBufs recycles do's response buffers. A buffer that grew past
// maxPooledResponse (a long listing) is left to the collector rather
// than pinned in the pool.
var responseBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledResponse = 1 << 20

func putResponseBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledResponse {
		responseBufs.Put(buf)
	}
}

// doRetry is do with the 429 retry loop: sleep per Retry-After (or
// exponential backoff), up to maxRetries additional attempts
// (negative = unbounded).
func (c *Client) doRetry(ctx context.Context, method, path string, body []byte, decode func(data []byte) error) error {
	delay := c.backoff
	for attempt := 0; ; attempt++ {
		err := c.do(ctx, method, path, body, decode)
		api := AsAPIError(err)
		if api == nil || api.Status != http.StatusTooManyRequests {
			return err
		}
		if c.maxRetries >= 0 && attempt >= c.maxRetries {
			return err
		}
		wait := delay
		if api.RetryAfter > 0 {
			// The server named a wait: honor it verbatim.
			wait = api.RetryAfter
		} else {
			// Exponential backoff, jittered so simultaneous retriers
			// spread out instead of re-colliding in lockstep.
			wait = c.jitter(delay)
			delay *= 2
			if delay > 2*time.Second {
				delay = 2 * time.Second
			}
		}
		if c.onBackoff != nil {
			c.onBackoff(wait)
		}
		if err := c.sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// apiErrorFrom decodes the service's structured error envelope,
// falling back to the raw body for non-conforming responses.
func apiErrorFrom(resp *http.Response, data []byte) *APIError {
	api := &APIError{Status: resp.StatusCode}
	var body serve.ErrorBody
	if err := json.Unmarshal(data, &body); err == nil && body.Error.Code != "" {
		api.Code = body.Error.Code
		api.Message = body.Error.Message
		api.Details = body.Error.Details
	} else {
		api.Code = serve.CodeInternal
		api.Message = string(data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			api.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return api
}

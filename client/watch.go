// Watch: the push-style job observer over GET /v1/jobs/{id}/watch.
// The server streams newline-delimited JSON snapshots — the current
// state first, then every status transition — and ends the stream
// after the terminal one. Each line is one compact job value written
// by the service's job codec; the Watcher reads it whole and decodes
// it with serve.DecodeJob, which reads the codec's form straight into
// a Job on the caller's stack and shares the strings of closed sets
// (statuses, trace events, kinds). The server sends the terminal line
// in the same write as the end of the body, so a caller that stops
// reading at it (Await does) finds the body at EOF, and the
// connection goes back to the keep-alive pool.
//
// The 4 KiB line reader is recycled: a Watcher takes one from a pool
// on its first connect, resets it onto the body of every reconnect (so
// a new stream never sees bytes a torn one left buffered), and Close
// gives it back, once. A Watcher is not safe for concurrent use: call
// Close from the goroutine that calls Next, and cancel the Watch
// context to interrupt a blocked Next.
//
// A watch is long-lived, so the stream can die mid-flight for
// transient reasons (connection reset, proxy idle timeout, a node
// restarting). The Watcher reconnects automatically with capped,
// jittered backoff and resumes from the last seen status: on
// reconnect the server replays the current snapshot, and the Watcher
// suppresses anything the caller has already seen, so Next delivers
// each state at most once and never goes backward. Only a
// structured API error on reconnect (job gone, node unclustered) or
// exhausted retries surface to the caller.
package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"starmesh/internal/serve"
)

// Watcher reads one job's status transitions from the server's
// ndjson stream, transparently reconnecting across transient stream
// errors. Close releases the connection; canceling the ctx passed to
// Watch does too.
type Watcher struct {
	c    *Client
	ctx  context.Context
	id   string
	body io.ReadCloser
	rd   *bufio.Reader // from lineReaders; nil once Close gave it back
	last Job
	seen bool
	// stalls counts consecutive reconnects that delivered no snapshot
	// — a stream that keeps accepting the connection and dying before
	// sending anything must eventually error out, not livelock.
	stalls int
}

// Watch opens a transition stream for a job. The first Next returns
// the job's current snapshot immediately; subsequent calls block
// until the next transition. Next returns io.EOF after the terminal
// snapshot has been delivered.
func (c *Client) Watch(ctx context.Context, id string) (*Watcher, error) {
	w := &Watcher{c: c, ctx: ctx, id: id}
	if err := w.connect(); err != nil {
		return nil, err
	}
	return w, nil
}

// connect opens (or reopens) the stream.
func (w *Watcher) connect() error {
	req, err := http.NewRequestWithContext(w.ctx, http.MethodGet,
		w.c.base+"/v1/jobs/"+url.PathEscape(w.id)+"/watch", nil)
	if err != nil {
		return err
	}
	if w.c.apiKey != "" {
		req.Header.Set("X-API-Key", w.c.apiKey)
	}
	resp, err := w.c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return apiErrorFrom(resp, data)
	}
	w.body = resp.Body
	if w.rd == nil {
		w.rd = lineReaders.Get().(*bufio.Reader)
	}
	w.rd.Reset(resp.Body)
	return nil
}

// lineReaders recycles the Watchers' line readers.
var lineReaders = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// errWatcherClosed is what reading a closed Watcher's stream fails
// with. Next treats it as any broken stream: io.EOF after a terminal
// snapshot, otherwise a reconnect.
var errWatcherClosed = errors.New("client: read on a closed watcher")

// read decodes the stream's next snapshot line.
func (w *Watcher) read() (Job, error) {
	if w.rd == nil {
		return Job{}, errWatcherClosed
	}
	for {
		line, err := w.rd.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A line longer than the buffer: gather it whole.
			long := append([]byte(nil), line...)
			for err == bufio.ErrBufferFull {
				line, err = w.rd.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			if err != nil {
				return Job{}, err
			}
			continue
		}
		// A final line may lack its newline; a torn one fails to
		// decode.
		var j Job
		if derr := serve.DecodeJob(line, &j); derr != nil {
			if err == nil || err == io.EOF {
				err = derr
			}
			return Job{}, err
		}
		return j, nil
	}
}

// Next returns the next snapshot from the stream; io.EOF once the
// terminal snapshot has been delivered. A broken stream reconnects
// under the hood: the caller only sees an error when the watch
// context dies, the server rejects the reconnect (e.g. the job is
// gone), or the retry budget runs out.
func (w *Watcher) Next() (Job, error) {
	for {
		j, err := w.read()
		if err == nil {
			// Replayed state after a reconnect: skip anything not newer
			// than what the caller already saw. Replays do not reset the
			// stall counter — only real progress does, so a stream that
			// reconnects fine but never advances still errors out.
			if w.seen && !newerSnapshot(j, w.last) {
				continue
			}
			w.stalls = 0
			w.last, w.seen = j, true
			return j, nil
		}
		// Stream broke. After a terminal snapshot that is just the
		// server closing a finished stream.
		if w.seen && w.last.Status.Terminal() {
			return Job{}, io.EOF
		}
		if cerr := w.ctx.Err(); cerr != nil {
			return Job{}, cerr
		}
		if w.stalls++; w.stalls > watchMaxReconnects {
			return Job{}, err
		}
		if rerr := w.reconnect(); rerr != nil {
			return Job{}, rerr
		}
	}
}

// watchMaxReconnects bounds the consecutive failed reconnect
// attempts of one stream gap (a successful reconnect resets it).
const watchMaxReconnects = 5

// reconnect reopens the stream with capped, jittered exponential
// backoff. A structured API error is final — the server answered,
// the stream is not coming back the way the caller expects.
func (w *Watcher) reconnect() error {
	w.body.Close()
	delay := w.c.backoff
	for attempt := 0; ; attempt++ {
		err := w.connect()
		if err == nil {
			return nil
		}
		if api := AsAPIError(err); api != nil {
			return err
		}
		if attempt >= watchMaxReconnects {
			return err
		}
		wait := w.c.jitter(delay)
		delay *= 2
		if delay > 2*time.Second {
			delay = 2 * time.Second
		}
		if serr := w.c.sleep(w.ctx, wait); serr != nil {
			return serr
		}
	}
}

// statusRank orders the lifecycle for resume-after-reconnect
// comparisons: queued < running < terminal.
func statusRank(s Status) int {
	switch {
	case s.Terminal():
		return 2
	case s == StatusRunning:
		return 1
	default:
		return 0
	}
}

// newerSnapshot reports whether j carries state beyond last. The
// lifecycle only moves forward except preemption (running → queued,
// Preemptions incremented), so preemption count dominates, then
// status rank, then the cancel-requested flag.
func newerSnapshot(j, last Job) bool {
	if j.Preemptions != last.Preemptions {
		return j.Preemptions > last.Preemptions
	}
	if jr, lr := statusRank(j.Status), statusRank(last.Status); jr != lr {
		return jr > lr
	}
	return j.CancelRequested && !last.CancelRequested
}

// Close tears the stream down and gives the line reader back. Safe
// after EOF and more than once.
func (w *Watcher) Close() error {
	if rd := w.rd; rd != nil {
		w.rd = nil
		rd.Reset(nil)
		lineReaders.Put(rd)
	}
	return w.body.Close()
}

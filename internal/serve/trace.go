// Per-job trace timelines: every job record carries the span events
// of its life — submitted → claimed → machine_ready → terminal, plus
// cancel_requested and recovered where they apply — with the duration
// since the previous event, so GET /v1/jobs/{id} answers "where did
// this job spend its time" without any external tracing system. The
// events ride the job snapshots the WAL already logs, so a timeline
// survives crash recovery with the job.
package serve

import "time"

// Trace event names, in lifecycle order. Terminal events reuse the
// Status strings ("done", "failed", "canceled").
const (
	// TraceSubmitted is recorded at admission.
	TraceSubmitted = "submitted"
	// TraceClaimed is recorded when a worker claims the job; its
	// duration is the queue wait.
	TraceClaimed = "claimed"
	// TraceMachineReady is recorded once the job's machine is checked
	// out of the pool; its detail names the shape and whether the
	// machine was built or reused, its duration is the checkout wait.
	TraceMachineReady = "machine_ready"
	// TraceCancelRequested is recorded when DELETE reaches a running
	// job; the terminal canceled event follows at the next checkpoint.
	TraceCancelRequested = "cancel_requested"
	// TraceRecovered is recorded during crash recovery on re-queued
	// jobs: everything after admission is forgotten (the re-execution
	// starts the timeline over) and this event marks the restart.
	TraceRecovered = "recovered"
	// TraceMigrated is recorded when a drain hands a queued job off to
	// a surviving cluster node: locally the job finishes canceled with
	// Error == MigratedError, and the resubmitted copy re-executes the
	// same spec (same seed) elsewhere, bit-identically.
	TraceMigrated = "migrated"
	// TracePreempted is recorded when a higher-priority submission
	// preempts this running job at its cancellation checkpoint: the
	// job goes back to its tenant's queue with the partial stats of
	// the interrupted run preserved, and re-executes from its seed —
	// bit-identical to an uninterrupted run — when its turn returns.
	TracePreempted = "preempted"
)

// MigratedError is the Error string of a job locally terminated by
// drain migration — clients distinguish "this node gave the job to a
// survivor" from a user cancel by it.
const MigratedError = "migrated: resubmitted to a surviving node"

// TraceEvent is one span event on a job's timeline.
type TraceEvent struct {
	// Event names the transition (Trace* constants or a terminal
	// Status string).
	Event string `json:"event"`
	// At is when the event happened.
	At time.Time `json:"at"`
	// DurNs is the time since the previous event on the timeline — the
	// span the job spent in the previous state (0 on the first event).
	DurNs int64 `json:"dur_ns,omitempty"`
	// Detail carries event context: the owning pool shape and
	// built/reused for machine_ready, the error for failed.
	Detail string `json:"detail,omitempty"`
}

// appendTrace appends one event to j's timeline, deriving the
// duration from the previous event. Caller holds the store lock (the
// timeline is part of the job record).
func appendTrace(j *Job, now time.Time, event, detail string) {
	ev := TraceEvent{Event: event, At: now, Detail: detail}
	if n := len(j.Trace); n > 0 {
		ev.DurNs = now.Sub(j.Trace[n-1].At).Nanoseconds()
	}
	j.Trace = append(j.Trace, ev)
}

// trace appends a mid-run event to a live job's timeline and logs it
// (opTrace) so the timeline stays durable between the claim and
// finish records.
func (st *store) trace(id string, now time.Time, event, detail string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok || j.Status.Terminal() {
		return
	}
	appendTrace(j, now, event, detail)
	st.log(opTrace, j)
}

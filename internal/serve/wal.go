// The durable job store: a WAL-backed Store implementation that
// survives crashes. Every transition the in-memory store makes
// (submit/claim/finish/cancel — the same events the watch
// subscription publishes) is appended, under the store lock that
// orders them, as one length-prefixed CRC32C-checksummed record to
// an append-only log. Once the log written since the last snapshot
// is at least as large as that snapshot (and at least
// minCompactBytes), the full store state is written to a snapshot
// file (tmp + fsync + rename, so the named snapshot is always whole)
// and the log restarts empty. Compaction in proportion to the
// snapshot bounds both disk use and recovery replay to about twice
// the snapshot (or the floor) no matter how long the service runs,
// while a multi-megabyte snapshot is rewritten only after as many
// bytes of log; retention inside a snapshot is the in-memory store's
// own eviction window.
//
// Recovery = snapshot + tail replay: records with LSNs at or below
// the snapshot's are skipped (a crash between snapshot rename and
// log reset replays idempotently), a torn or corrupt record
// truncates the tail there (the bytes a mid-write crash leaves
// behind), then interrupted work is re-admitted — QUEUED jobs keep
// their ids and original admission order (cursor pagination stays
// stable), RUNNING jobs go back to the queue for deterministic
// re-execution from their spec seeds (specs fully determine results,
// so the re-run is bit-identical to the run the crash stole), and
// RUNNING jobs whose cancellation was already requested become
// canceled. Recovery ends with a fresh snapshot, so a second crash
// replays from the recovered state, not the original history.
//
// A WAL write failure after boot does not take the service down: the
// store degrades to memory-only and says so in Durability.Degraded
// (surfaced by /v1/healthz) — durability is gone, availability is
// not.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"starmesh/internal/faultfs"
)

// Durability describes a Store's persistence backend — the /v1/healthz
// and /v1/stats durability block.
type Durability struct {
	// Store is the backend kind: "memory" or "wal".
	Store string `json:"store"`
	// Dir, WALPath and SnapshotPath locate the durable files (wal only).
	Dir          string `json:"dir,omitempty"`
	WALPath      string `json:"wal_path,omitempty"`
	SnapshotPath string `json:"snapshot_path,omitempty"`
	// LastSnapshot is when the newest durable snapshot was taken.
	LastSnapshot time.Time `json:"last_snapshot,omitzero"`
	// Snapshots and WALRecords count compactions and appended records
	// since this process opened the store.
	Snapshots  int64 `json:"snapshots,omitempty"`
	WALRecords int64 `json:"wal_records,omitempty"`
	// Boot-time recovery counts: jobs re-admitted from the queue,
	// interrupted running jobs re-queued for deterministic
	// re-execution, and running jobs finalized as canceled because
	// cancellation had been requested before the crash.
	RecoveredQueued    int `json:"recovered_queued"`
	ReexecutedRunning  int `json:"reexecuted_running"`
	CanceledAtRecovery int `json:"canceled_at_recovery,omitempty"`
	// ReplayedRecords counts WAL records applied at boot;
	// TruncatedTailBytes is the torn/corrupt tail recovery dropped.
	ReplayedRecords    int   `json:"replayed_records,omitempty"`
	TruncatedTailBytes int64 `json:"truncated_tail_bytes,omitempty"`
	// Degraded is non-empty after a WAL write failure: the service
	// keeps running memory-only from that point and this says why.
	Degraded string `json:"degraded,omitempty"`
}

// Record framing: [4-byte little-endian payload length][4-byte CRC32C
// of payload][payload]. A record is written in a single Write call,
// so a crash tears at most the final record — exactly what frameAt
// detects and recovery truncates.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeaderLen = 8
	// maxFrameLen rejects absurd lengths decoded from corrupt
	// headers before any allocation happens.
	maxFrameLen = 16 << 20
)

// appendFrame appends one framed payload to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return append(append(buf, hdr[:]...), payload...)
}

// frameAt decodes the frame starting at off. ok=false means the
// bytes from off on are torn or corrupt (short header, short
// payload, impossible length or checksum mismatch) — the caller
// truncates there.
func frameAt(data []byte, off int) (payload []byte, next int, ok bool) {
	if off+frameHeaderLen > len(data) {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	if n > maxFrameLen || off+frameHeaderLen+n > len(data) {
		return nil, 0, false
	}
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	payload = data[off+frameHeaderLen : off+frameHeaderLen+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, false
	}
	return payload, off + frameHeaderLen + n, true
}

// walRecord is one logged transition: the op plus the job's full
// post-transition snapshot. Carrying the whole job makes replay a
// state overwrite instead of a re-derivation, so the WAL cannot
// disagree with the store about what a transition meant.
type walRecord struct {
	LSN uint64 `json:"lsn"`
	Op  walOp  `json:"op"`
	Job Job    `json:"job"`
}

// walSnapshot is the full store state at one LSN.
type walSnapshot struct {
	TakenAt time.Time `json:"taken_at"`
	LSN     uint64    `json:"lsn"`
	Next    int       `json:"next"`
	// Jobs are the retained jobs in admission order (evicted jobs are
	// gone — the cumulative counters below remember them).
	Jobs       []Job          `json:"jobs"`
	Counts     map[Status]int `json:"counts"`
	Finished   int64          `json:"finished"`
	UnitRoutes int64          `json:"unit_routes"`
	Conflicts  int64          `json:"conflicts"`
	ByKind     []KindStats    `json:"by_kind,omitempty"`
	LatTotal   []int64        `json:"lat_total_ns,omitempty"`
	LatRun     []int64        `json:"lat_run_ns,omitempty"`
	WatchDrops int64          `json:"watch_drops,omitempty"`
}

// minCompactBytes is the log size below which the store never
// compacts, however small its snapshot: a near-empty store would
// otherwise rewrite its snapshot every few records. A variable, not a
// constant, so tests can shrink it.
var minCompactBytes int64 = 1 << 20

// File names inside the store dir.
const (
	walFileName     = "wal.log"
	snapFileName    = "store.snap"
	snapTmpFileName = "store.snap.tmp"
)

// durableStore is the WAL-backed Store: the in-memory store for all
// live behavior, plus an append log + snapshot cycle hooked into
// every transition via logf.
type durableStore struct {
	*store
	dir  string
	open faultfs.OpenFunc

	// All fields below are guarded by store.mu: logRecord runs under
	// it (logf contract), and the other methods take it.
	f   faultfs.File
	lsn uint64
	// walBytes is the log written since the last snapshot, snapBytes
	// that snapshot's size: the compaction trigger compares the two.
	walBytes  int64
	snapBytes int64
	frozen    bool // crash-simulated (tests) or degraded: no more appends
	dur       Durability
	recovered []string // queued ids to re-admit, admission order

	// walObs, when set (setObs, after open), observes append/sync/
	// snapshot timings for the metrics layer. Counters that already
	// live in dur (records, snapshots, recovery) are bridged at scrape
	// time instead.
	walObs *walObs
}

// openDurableStore opens (or creates) the durable store rooted at
// dir, running crash recovery against whatever a previous process
// left there. open == nil uses real files (tests inject a
// faultfs.Injector).
func openDurableStore(dir string, open faultfs.OpenFunc) (*durableStore, error) {
	if open == nil {
		open = faultfs.Open
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store dir: %w", err)
	}
	walPath := filepath.Join(dir, walFileName)
	snapPath := filepath.Join(dir, snapFileName)
	ds := &durableStore{
		store: newStore(),
		dir:   dir,
		open:  open,
		dur: Durability{
			Store:        "wal",
			Dir:          dir,
			WALPath:      walPath,
			SnapshotPath: snapPath,
		},
	}
	// A leftover tmp snapshot is a snapshot write the crash
	// interrupted before the atomic rename: the named snapshot (or
	// its absence) plus the un-reset WAL is the consistent state.
	_ = os.Remove(filepath.Join(dir, snapTmpFileName))

	if data, err := os.ReadFile(snapPath); err == nil && len(data) > 0 {
		payload, next, ok := frameAt(data, 0)
		if !ok || next != len(data) {
			return nil, fmt.Errorf("serve: snapshot %s is corrupt (bad frame or checksum) — move it aside to restart empty", snapPath)
		}
		var snap walSnapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return nil, fmt.Errorf("serve: snapshot %s does not decode: %w", snapPath, err)
		}
		ds.installSnapshot(&snap)
	}

	if data, err := os.ReadFile(walPath); err == nil {
		off := 0
		for off < len(data) {
			payload, next, ok := frameAt(data, off)
			if !ok {
				// Torn or corrupt tail: a crash mid-append. Everything
				// before it is intact; the tail is dropped and the file
				// truncated to the good prefix.
				ds.dur.TruncatedTailBytes = int64(len(data) - off)
				break
			}
			var rec walRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				ds.dur.TruncatedTailBytes = int64(len(data) - off)
				break
			}
			if rec.LSN > ds.lsn {
				ds.store.apply(&rec)
				ds.lsn = rec.LSN
				ds.dur.ReplayedRecords++
			}
			off = next
		}
	}

	ds.recoverInterrupted(time.Now())

	// Compact immediately: the recovered state becomes the snapshot
	// and the WAL restarts empty, so a second crash replays from
	// here, not from the whole prior history. Failing to persist at
	// boot is fatal — a store that cannot write its own directory
	// must not claim durability.
	f, err := open(walPath, false)
	if err != nil {
		return nil, fmt.Errorf("serve: open wal: %w", err)
	}
	ds.f = f
	if err := ds.snapshotLocked(time.Now()); err != nil {
		ds.f.Close()
		return nil, fmt.Errorf("serve: boot snapshot: %w", err)
	}
	ds.store.logf = ds.logRecord
	return ds, nil
}

// installSnapshot loads a decoded snapshot into the embedded store.
func (ds *durableStore) installSnapshot(snap *walSnapshot) {
	st := ds.store
	st.next = snap.Next
	for i := range snap.Jobs {
		j := snap.Jobs[i] // copy: each job gets its own allocation
		st.jobs[j.ID] = &j
		st.order = append(st.order, j.ID)
	}
	for status, n := range snap.Counts {
		st.counts[status] = n
	}
	st.finished = snap.Finished
	st.unitRoutes = snap.UnitRoutes
	st.conflicts = snap.Conflicts
	for i := range snap.ByKind {
		k := snap.ByKind[i]
		st.byKind[k.Kind] = &k
	}
	for _, ns := range snap.LatTotal {
		st.latTotal.add(time.Duration(ns))
	}
	for _, ns := range snap.LatRun {
		st.latRun.add(time.Duration(ns))
	}
	st.watchDrops = snap.WatchDrops
	ds.lsn = snap.LSN
	ds.dur.LastSnapshot = snap.TakenAt
}

// apply replays one WAL record against the store state — the replay
// side of the logf hook. Transition guards make replay idempotent
// and tolerant of records about jobs the snapshot already settled.
func (st *store) apply(rec *walRecord) {
	id := rec.Job.ID
	switch rec.Op {
	case opSubmit:
		if _, exists := st.jobs[id]; exists {
			return
		}
		j := rec.Job
		st.jobs[id] = &j
		st.order = append(st.order, id)
		st.counts[StatusQueued]++
		if seq := seqOf(id); seq > st.next {
			st.next = seq
		}
	case opClaim:
		j, ok := st.jobs[id]
		if !ok || j.Status != StatusQueued {
			return
		}
		st.counts[StatusQueued]--
		*j = rec.Job
		st.counts[StatusRunning]++
	case opFinish:
		j, ok := st.jobs[id]
		if !ok || j.Status != StatusRunning {
			return
		}
		st.counts[StatusRunning]--
		*j = rec.Job
		st.foldFinished(j)
		st.evict()
	case opCancel:
		j, ok := st.jobs[id]
		if !ok || j.Status != StatusQueued {
			return
		}
		st.counts[StatusQueued]--
		*j = rec.Job
		st.foldCanceledQueued(j)
		st.evict()
	case opCancelReq:
		if j, ok := st.jobs[id]; ok && j.Status == StatusRunning {
			j.CancelRequested = true
			j.Trace = append([]TraceEvent(nil), rec.Job.Trace...)
		}
	case opPreempt:
		// Preemption requeue: running → queued with the partial result
		// preserved. The job re-enters recovery's queued set, so a crash
		// after a preempt still re-admits it — in admission order, in
		// its tenant's queue.
		j, ok := st.jobs[id]
		if !ok || j.Status != StatusRunning {
			return
		}
		st.counts[StatusRunning]--
		*j = rec.Job
		st.counts[StatusQueued]++
	case opTrace:
		// The record carries the job's whole timeline; replay is a
		// state overwrite like every other op.
		if j, ok := st.jobs[id]; ok && !j.Status.Terminal() {
			j.Trace = append([]TraceEvent(nil), rec.Job.Trace...)
		}
	case opRemove:
		j, ok := st.jobs[id]
		if !ok {
			return
		}
		st.counts[j.Status]--
		delete(st.jobs, id)
		if n := len(st.order); n > 0 && st.order[n-1] == id {
			st.order = st.order[:n-1]
		}
	}
}

// recoverInterrupted settles the jobs a crash left non-terminal.
// Walks admission order, so re-admission preserves it.
func (ds *durableStore) recoverInterrupted(now time.Time) {
	st := ds.store
	for i := st.front; i < len(st.order); i++ {
		j := st.jobs[st.order[i]]
		if j == nil {
			continue
		}
		switch j.Status {
		case StatusQueued:
			ds.recovered = append(ds.recovered, j.ID)
			ds.dur.RecoveredQueued++
		case StatusRunning:
			st.counts[StatusRunning]--
			if j.CancelRequested {
				// The cancel was accepted before the crash; honoring it
				// beats re-executing work nobody wants.
				j.Status = StatusCanceled
				j.Finished = now
				j.Error = "canceled: cancellation requested before the service restarted"
				appendTrace(j, now, string(StatusCanceled), "finalized at recovery")
				st.foldCanceledQueued(j)
				ds.dur.CanceledAtRecovery++
			} else {
				// Back to the queue for deterministic re-execution: the
				// spec's seed fully determines the result, so the re-run
				// is bit-identical to the one the crash interrupted.
				j.Status = StatusQueued
				j.Started = time.Time{}
				// The interrupted run's trace is stale — the re-execution
				// restarts the timeline from admission, with a recovered
				// marker in between.
				if len(j.Trace) > 0 {
					j.Trace = j.Trace[:1]
				}
				appendTrace(j, now, TraceRecovered, "re-queued for deterministic re-execution")
				st.counts[StatusQueued]++
				ds.recovered = append(ds.recovered, j.ID)
				ds.dur.ReexecutedRunning++
			}
		}
	}
}

// logRecord is the logf hook: append one framed record, snapshotting
// + compacting once the log since the last snapshot has outgrown it
// (and the minCompactBytes floor). Runs under store.mu (logf
// contract). A
// write failure degrades to memory-only instead of failing the job
// transition that triggered it.
func (ds *durableStore) logRecord(op walOp, j *Job) {
	if ds.frozen {
		return
	}
	ds.lsn++
	rec := walRecord{LSN: ds.lsn, Op: op, Job: j.snapshot()}
	payload, err := json.Marshal(rec)
	if err != nil {
		ds.degrade(fmt.Sprintf("marshal %s record: %v", op, err))
		return
	}
	frame := appendFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)
	var start time.Time
	if ds.walObs != nil {
		start = time.Now()
	}
	if _, err := ds.f.Write(frame); err != nil {
		ds.degrade(fmt.Sprintf("append %s record: %v", op, err))
		return
	}
	if ds.walObs != nil {
		ds.walObs.appendSeconds.Observe(time.Since(start).Seconds())
		ds.walObs.appendBytes.Add(int64(len(frame)))
	}
	ds.dur.WALRecords++
	ds.walBytes += int64(len(frame))
	if ds.walBytes >= max(ds.snapBytes, minCompactBytes) {
		if err := ds.snapshotLocked(time.Now()); err != nil {
			ds.degrade(fmt.Sprintf("snapshot: %v", err))
		}
	}
}

// degrade records the first WAL failure and stops appending; the
// in-memory store keeps serving. Caller holds store.mu.
func (ds *durableStore) degrade(msg string) {
	if ds.dur.Degraded == "" {
		ds.dur.Degraded = msg
	}
	ds.frozen = true
}

// buildSnapshot captures the store state. Caller holds store.mu (or
// has exclusive access during open).
func (ds *durableStore) buildSnapshot(now time.Time) walSnapshot {
	st := ds.store
	snap := walSnapshot{
		TakenAt:    now,
		LSN:        ds.lsn,
		Next:       st.next,
		Jobs:       make([]Job, 0, len(st.order)-st.front),
		Counts:     make(map[Status]int, len(st.counts)),
		Finished:   st.finished,
		UnitRoutes: st.unitRoutes,
		Conflicts:  st.conflicts,
		LatTotal:   windowNs(&st.latTotal),
		LatRun:     windowNs(&st.latRun),
		WatchDrops: st.watchDrops,
	}
	for i := st.front; i < len(st.order); i++ {
		if j := st.jobs[st.order[i]]; j != nil {
			snap.Jobs = append(snap.Jobs, j.snapshot())
		}
	}
	for status, n := range st.counts {
		snap.Counts[status] = n
	}
	for _, k := range st.byKind {
		snap.ByKind = append(snap.ByKind, *k)
	}
	return snap
}

// windowNs flattens a latency ring into insertion order.
func windowNs(w *latWindow) []int64 {
	out := make([]int64, 0, len(w.samples))
	for i := 0; i < len(w.samples); i++ {
		out = append(out, w.samples[(w.next+i)%len(w.samples)].Nanoseconds())
	}
	return out
}

// snapshotLocked writes the store state to the snapshot file (tmp +
// sync + atomic rename) and resets the WAL — the compaction step.
// The WAL is only truncated after the rename lands, so every crash
// point leaves either the old snapshot + full log or the new
// snapshot + (possibly still-full, LSN-skipped) log. Caller holds
// store.mu (or has exclusive access during open).
func (ds *durableStore) snapshotLocked(now time.Time) error {
	if ds.walObs != nil {
		start := time.Now()
		defer func() {
			ds.walObs.snapshotSeconds.Observe(time.Since(start).Seconds())
		}()
	}
	snap := ds.buildSnapshot(now)
	payload, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	tmpPath := filepath.Join(ds.dir, snapTmpFileName)
	tmp, err := ds.open(tmpPath, true)
	if err != nil {
		return err
	}
	frame := appendFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)
	_, werr := tmp.Write(frame)
	if werr == nil {
		var start time.Time
		if ds.walObs != nil {
			start = time.Now()
		}
		werr = tmp.Sync()
		if ds.walObs != nil {
			ds.walObs.syncSeconds.Observe(time.Since(start).Seconds())
		}
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpPath)
		return werr
	}
	if err := os.Rename(tmpPath, ds.dur.SnapshotPath); err != nil {
		os.Remove(tmpPath)
		return err
	}
	// The snapshot is durable; the log it covers can go.
	if ds.f != nil {
		ds.f.Close()
	}
	nf, err := ds.open(ds.dur.WALPath, true)
	if err != nil {
		ds.f = nil
		return err
	}
	ds.f = nf
	ds.walBytes = 0
	ds.snapBytes = int64(len(frame))
	ds.dur.Snapshots++
	ds.dur.LastSnapshot = now
	return nil
}

// setObs attaches the WAL timing instruments — called once by the
// Service after open, before any worker starts.
func (ds *durableStore) setObs(w *walObs) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.walObs = w
}

// durability reports the WAL state for /v1/healthz and /v1/stats.
func (ds *durableStore) durability() Durability {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.dur
}

// recoveredQueued returns the ids recovery re-admitted, in original
// admission order; the Service feeds them to its workers before
// accepting new submissions.
func (ds *durableStore) recoveredQueued() []string { return ds.recovered }

// close flushes and closes the WAL. Safe after freeze (a no-op).
func (ds *durableStore) close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.frozen || ds.f == nil {
		return nil
	}
	ds.frozen = true
	err := ds.f.Sync()
	if cerr := ds.f.Close(); err == nil {
		err = cerr
	}
	ds.f = nil
	return err
}

// freeze simulates a crash: appends stop and the file handle dies,
// mid-whatever the service was doing — the test hook behind the
// kill-under-load recovery suite. The in-memory side keeps running
// (the "process" hasn't noticed it is doomed), but nothing after the
// freeze reaches disk, exactly like SIGKILL.
func (ds *durableStore) freeze() {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.frozen {
		return
	}
	ds.frozen = true
	if ds.f != nil {
		ds.f.Close()
		ds.f = nil
	}
}

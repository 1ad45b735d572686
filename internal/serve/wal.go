// The store's write-ahead log: what makes a store opened with a
// directory survive crashes. Every transition the store makes
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
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"time"

	"starmesh/internal/faultfs"
)

// Durability describes the store's persistence backend — the
// /v1/healthz and /v1/stats durability block.
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

// sealFrame fills in the header of a frame encoded in place: frame
// holds frameHeaderLen reserved bytes, then the payload.
func sealFrame(frame []byte) {
	payload := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
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
// disagree with the store about what a transition meant. st.log
// writes it with appendRecord (jobjson.go); replay decodes it with
// encoding/json.
type walRecord struct {
	LSN uint64 `json:"lsn"`
	Op  walOp  `json:"op"`
	Job Job    `json:"job"`
}

// validRecord reports whether replay can apply rec. A finish record
// must carry a terminal status, and a done one its result (the
// aggregates fold it); anything else is as corrupt as an undecodable
// record.
func validRecord(rec *walRecord) bool {
	if rec.Op != opFinish {
		return true
	}
	return rec.Job.Status.Terminal() && (rec.Job.Status != StatusDone || rec.Job.Result != nil)
}

// walSnapshot is the full store state at one LSN, written by
// appendSnapshot (jobjson.go) and decoded with encoding/json.
type walSnapshot struct {
	TakenAt time.Time `json:"taken_at"`
	LSN     uint64    `json:"lsn"`
	Next    int       `json:"next"`
	// Jobs are the retained jobs in admission order (evicted jobs are
	// gone — the per-kind totals below remember them). A snapshot
	// being written points at the store's live jobs: it is built and
	// encoded under the store lock. The live status counts and the
	// finish window are rebuilt from them at load, so the snapshot
	// stores neither. Older snapshots also hold "counts", "finished",
	// "unit_routes", "conflicts", "lat_total_ns" and "lat_run_ns";
	// decoding ignores them.
	Jobs       []*Job      `json:"jobs"`
	ByKind     []KindStats `json:"by_kind,omitempty"`
	WatchDrops int64       `json:"watch_drops,omitempty"`
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

// walLog is the durable half of a store opened with a directory: the
// append log, its snapshot + compaction cycle and what boot-time
// recovery found. Every field is guarded by the owning store's mu.
type walLog struct {
	dir  string
	open faultfs.OpenFunc

	f   faultfs.File
	lsn uint64
	// walBytes is the log written since the last snapshot, snapBytes
	// that snapshot's size: the compaction trigger compares the two.
	walBytes  int64
	snapBytes int64
	frozen    bool // crash-simulated (tests) or degraded: no more appends
	// rec is the frame buffer st.log encodes each record into, reused
	// from record to record.
	rec       []byte
	dur       Durability
	recovered []string // queued ids to re-admit, admission order

	// obs, when set (by the Service after open), observes append/sync/
	// snapshot timings for the metrics layer. Counters that already
	// live in dur (records, snapshots, recovery) are bridged at scrape
	// time instead.
	obs *walObs
}

// openStore opens the job store. dir == "" keeps state in memory only
// — it dies with the process. Otherwise the store is WAL-backed,
// rooted at dir, and crash recovery runs against whatever a previous
// process left there. open == nil uses real files (tests inject a
// faultfs.Injector).
func openStore(dir string, open faultfs.OpenFunc) (*store, error) {
	st := &store{
		jobs:     make(map[string]*Job),
		byKind:   make(map[string]*KindStats),
		cancels:  make(map[string]context.CancelFunc),
		watchers: make(map[string][]chan Job),
	}
	if dir == "" {
		return st, nil
	}
	if open == nil {
		open = faultfs.Open
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store dir: %w", err)
	}
	walPath := filepath.Join(dir, walFileName)
	snapPath := filepath.Join(dir, snapFileName)
	w := &walLog{
		dir:  dir,
		open: open,
		dur: Durability{
			Store:        "wal",
			Dir:          dir,
			WALPath:      walPath,
			SnapshotPath: snapPath,
		},
	}
	// Replay and recovery never log (only live transitions call
	// st.log), so the WAL can be attached before them.
	st.wal = w
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
		if err := st.installSnapshot(&snap); err != nil {
			return nil, fmt.Errorf("serve: snapshot %s is corrupt: %w", snapPath, err)
		}
	}

	if data, err := os.ReadFile(walPath); err == nil {
		off := 0
		for off < len(data) {
			payload, next, ok := frameAt(data, off)
			if !ok {
				// Torn or corrupt tail: a crash mid-append. Everything
				// before it is intact; the tail is dropped and the file
				// truncated to the good prefix.
				w.dur.TruncatedTailBytes = int64(len(data) - off)
				break
			}
			var rec walRecord
			if err := json.Unmarshal(payload, &rec); err != nil || !validRecord(&rec) {
				w.dur.TruncatedTailBytes = int64(len(data) - off)
				break
			}
			if rec.LSN > w.lsn {
				st.apply(&rec)
				w.lsn = rec.LSN
				w.dur.ReplayedRecords++
			}
			off = next
		}
	}

	st.recoverInterrupted(time.Now())

	// Compact immediately: the recovered state becomes the snapshot
	// and the WAL restarts empty, so a second crash replays from
	// here, not from the whole prior history. Failing to persist at
	// boot is fatal — a store that cannot write its own directory
	// must not claim durability.
	f, err := open(walPath, false)
	if err != nil {
		return nil, fmt.Errorf("serve: open wal: %w", err)
	}
	w.f = f
	if err := st.snapshotLocked(time.Now()); err != nil {
		w.f.Close()
		return nil, fmt.Errorf("serve: boot snapshot: %w", err)
	}
	return st, nil
}

// installSnapshot loads a decoded snapshot into the store. It counts
// the live jobs, and refolds into the finish window, in finish order,
// the retained jobs that finished from running: terminal ones that
// were claimed, except those recovery canceled, which never finished
// a run.
func (st *store) installSnapshot(snap *walSnapshot) error {
	st.next = snap.Next
	var ran []*Job
	for i, j := range snap.Jobs {
		if j == nil {
			return fmt.Errorf("job %d is null", i)
		}
		st.jobs[j.ID] = j
		st.order = append(st.order, j.ID)
		st.countLive(j.Status, 1)
		if j.Status.Terminal() && !j.Started.IsZero() && j.Error != recoveryCanceledError {
			ran = append(ran, j)
		}
	}
	slices.SortStableFunc(ran, func(a, b *Job) int { return a.Finished.Compare(b.Finished) })
	for _, j := range ran {
		st.window.add(j)
	}
	for i := range snap.ByKind {
		k := snap.ByKind[i]
		st.byKind[k.Kind] = &k
	}
	st.watchDrops = snap.WatchDrops
	st.wal.lsn = snap.LSN
	st.wal.dur.LastSnapshot = snap.TakenAt
	return nil
}

// apply replays one WAL record against the store state — the replay
// side of st.log. Transition guards make replay idempotent
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
		st.queued++
		if seq := seqOf(id); seq > st.next {
			st.next = seq
		}
	case opClaim:
		j, ok := st.jobs[id]
		if !ok || j.Status != StatusQueued {
			return
		}
		st.queued--
		st.running++
		*j = rec.Job
	case opFinish:
		j, ok := st.jobs[id]
		if !ok || j.Status != StatusRunning {
			return
		}
		st.running--
		*j = rec.Job
		st.foldFinished(j)
		st.evict()
	case opCancel:
		j, ok := st.jobs[id]
		if !ok || j.Status != StatusQueued {
			return
		}
		st.queued--
		*j = rec.Job
		st.kindStats(j.Spec.Kind).Canceled++
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
		st.running--
		st.queued++
		*j = rec.Job
	case opRemove:
		j, ok := st.jobs[id]
		if !ok {
			return
		}
		st.countLive(j.Status, -1)
		delete(st.jobs, id)
		if n := len(st.order); n > 0 && st.order[n-1] == id {
			st.order = st.order[:n-1]
		}
	}
}

// recoveryCanceledError is the error of a running job that recovery
// finalized as canceled because its cancellation had been requested.
const recoveryCanceledError = "canceled: cancellation requested before the service restarted"

// recoverInterrupted settles the jobs a crash left non-terminal.
// Walks admission order, so re-admission preserves it.
func (st *store) recoverInterrupted(now time.Time) {
	w := st.wal
	for i := st.front; i < len(st.order); i++ {
		j := st.jobs[st.order[i]]
		if j == nil {
			continue
		}
		switch j.Status {
		case StatusQueued:
			w.recovered = append(w.recovered, j.ID)
			w.dur.RecoveredQueued++
		case StatusRunning:
			st.running--
			if j.CancelRequested {
				// The cancel was accepted before the crash; honoring it
				// beats re-executing work nobody wants.
				j.Status = StatusCanceled
				j.Finished = now
				j.Error = recoveryCanceledError
				appendTrace(j, now, string(StatusCanceled), "finalized at recovery")
				st.kindStats(j.Spec.Kind).Canceled++
				w.dur.CanceledAtRecovery++
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
				st.queued++
				w.recovered = append(w.recovered, j.ID)
				w.dur.ReexecutedRunning++
			}
		}
	}
}

// log appends one framed transition record to the WAL — a no-op for
// a memory-only store — snapshotting + compacting once the log since
// the last snapshot has outgrown it (and the minCompactBytes floor).
// Caller holds st.mu. A write failure degrades to memory-only instead
// of failing the job transition that triggered it.
func (st *store) log(op walOp, j *Job) {
	w := st.wal
	if w == nil || w.frozen {
		return
	}
	w.lsn++
	// Encode straight from the live job (the lock is held) into the
	// reused buffer, leaving room for the header.
	frame := appendRecord(append(w.rec[:0], make([]byte, frameHeaderLen)...), w.lsn, op, j)
	w.rec = frame
	sealFrame(frame)
	var start time.Time
	if w.obs != nil {
		start = time.Now()
	}
	if _, err := w.f.Write(frame); err != nil {
		w.degrade(fmt.Sprintf("append %s record: %v", op, err))
		return
	}
	if w.obs != nil {
		w.obs.appendSeconds.Observe(time.Since(start).Seconds())
		w.obs.appendBytes.Add(int64(len(frame)))
	}
	w.dur.WALRecords++
	w.walBytes += int64(len(frame))
	if w.walBytes >= max(w.snapBytes, minCompactBytes) {
		if err := st.snapshotLocked(time.Now()); err != nil {
			w.degrade(fmt.Sprintf("snapshot: %v", err))
		}
	}
}

// degrade records the first WAL failure and stops appending; the
// store keeps serving from memory. Caller holds the store's mu.
func (w *walLog) degrade(msg string) {
	if w.dur.Degraded == "" {
		w.dur.Degraded = msg
	}
	w.frozen = true
}

// buildSnapshot captures the store state. Its Jobs are the store's
// live jobs, not copies, so the caller holds st.mu (or has exclusive
// access during open) until the snapshot is encoded.
func (st *store) buildSnapshot(now time.Time) walSnapshot {
	snap := walSnapshot{
		TakenAt:    now,
		LSN:        st.wal.lsn,
		Next:       st.next,
		Jobs:       make([]*Job, 0, len(st.order)-st.front),
		WatchDrops: st.watchDrops,
	}
	for i := st.front; i < len(st.order); i++ {
		if j := st.jobs[st.order[i]]; j != nil {
			snap.Jobs = append(snap.Jobs, j)
		}
	}
	for _, k := range st.byKind {
		snap.ByKind = append(snap.ByKind, *k)
	}
	return snap
}

// snapshotLocked writes the store state to the snapshot file (tmp +
// sync + atomic rename) and resets the WAL — the compaction step.
// The WAL is only truncated after the rename lands, so every crash
// point leaves either the old snapshot + full log or the new
// snapshot + (possibly still-full, LSN-skipped) log. Caller holds
// st.mu (or has exclusive access during open).
func (st *store) snapshotLocked(now time.Time) error {
	w := st.wal
	if w.obs != nil {
		start := time.Now()
		defer func() {
			w.obs.snapshotSeconds.Observe(time.Since(start).Seconds())
		}()
	}
	snap := st.buildSnapshot(now)
	// One buffer, sized from the previous snapshot, holds the whole
	// frame. It is not kept: a multi-megabyte buffer held between
	// snapshots would stay on the live heap.
	frame := make([]byte, frameHeaderLen, frameHeaderLen+w.snapBytes+w.snapBytes/8)
	frame = appendSnapshot(frame, &snap)
	sealFrame(frame)
	tmpPath := filepath.Join(w.dir, snapTmpFileName)
	tmp, err := w.open(tmpPath, true)
	if err != nil {
		return err
	}
	_, werr := tmp.Write(frame)
	if werr == nil {
		var start time.Time
		if w.obs != nil {
			start = time.Now()
		}
		werr = tmp.Sync()
		if w.obs != nil {
			w.obs.syncSeconds.Observe(time.Since(start).Seconds())
		}
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpPath)
		return werr
	}
	if err := os.Rename(tmpPath, w.dur.SnapshotPath); err != nil {
		os.Remove(tmpPath)
		return err
	}
	// The snapshot is durable; the log it covers can go.
	if w.f != nil {
		w.f.Close()
	}
	nf, err := w.open(w.dur.WALPath, true)
	if err != nil {
		w.f = nil
		return err
	}
	w.f = nf
	w.walBytes = 0
	w.snapBytes = int64(len(frame))
	w.dur.Snapshots++
	w.dur.LastSnapshot = now
	return nil
}

// durability reports the persistence backend for /v1/healthz and
// /v1/stats: "memory", or the WAL state.
func (st *store) durability() Durability {
	if st.wal == nil {
		return Durability{Store: "memory"}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.wal.dur
}

// recoveredQueued returns the ids recovery re-admitted, in original
// admission order (none for a memory store); the Service feeds them
// to its workers before accepting new submissions.
func (st *store) recoveredQueued() []string {
	if st.wal == nil {
		return nil
	}
	return st.wal.recovered
}

// close flushes and closes the WAL. A no-op for a memory store and
// after freeze.
func (st *store) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	w := st.wal
	if w == nil || w.frozen || w.f == nil {
		return nil
	}
	w.frozen = true
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// freeze simulates a crash of a WAL-backed store: appends stop and the
// file handle dies, mid-whatever the service was doing — the test hook
// behind the kill-under-load recovery suite. The in-memory side keeps
// running (the "process" hasn't noticed it is doomed), but nothing
// after the freeze reaches disk, exactly like SIGKILL.
func (st *store) freeze() {
	st.mu.Lock()
	defer st.mu.Unlock()
	w := st.wal
	if w.frozen {
		return
	}
	w.frozen = true
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

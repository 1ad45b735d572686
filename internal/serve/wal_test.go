// Store-level tests of the WAL-backed durable store: round-trip
// persistence, recovery ordering, torn/corrupt tail handling (via the
// faultfs injector — the byte streams a crash leaves behind, without
// kill -9), snapshot compaction and the degraded memory-only mode.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"starmesh/internal/faultfs"
)

// openDurable opens a durable store or fails the test.
func openDurable(t *testing.T, dir string, open faultfs.OpenFunc) *store {
	t.Helper()
	ds, err := openStore(dir, open)
	if err != nil {
		t.Fatalf("openStore(%s): %v", dir, err)
	}
	return ds
}

func TestDurableStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, nil)
	now := time.Now()

	// One of every lifecycle outcome: done, failed, canceled-queued,
	// still queued.
	done := ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
	failed := ds.add(JobSpec{Kind: KindSort, N: 3, Dist: "uniform", Seed: 1}, DefaultTenant, now)
	canceled := ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
	queued := ds.add(JobSpec{Kind: KindSweep, N: 4}, DefaultTenant, now)

	if _, ok := ds.claim(done.ID, now.Add(time.Millisecond), nil); !ok {
		t.Fatal("claim failed")
	}
	ds.finish(done.ID, ScenarioResult{UnitRoutes: 42, Conflicts: 3, OK: true}, nil,
		now.Add(2*time.Millisecond))
	if _, ok := ds.claim(failed.ID, now.Add(time.Millisecond), nil); !ok {
		t.Fatal("claim failed")
	}
	ds.finish(failed.ID, ScenarioResult{}, errors.New("boom"), now.Add(2*time.Millisecond))
	if _, err := ds.cancel(canceled.ID, now.Add(time.Millisecond)); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}

	before := ds.aggregate(time.Second)
	doneBefore, _ := ds.get(done.ID)
	if err := ds.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	ds2 := openDurable(t, dir, nil)
	defer ds2.close()
	dur := ds2.durability()
	if dur.Store != "wal" || dur.ReplayedRecords == 0 {
		t.Fatalf("reopen replayed nothing: %+v", dur)
	}
	if dur.RecoveredQueued != 1 || dur.ReexecutedRunning != 0 {
		t.Fatalf("recovery counts wrong: %+v", dur)
	}
	if got := ds2.recoveredQueued(); len(got) != 1 || got[0] != queued.ID {
		t.Fatalf("recovered queue = %v, want [%s]", got, queued.ID)
	}

	// Every job survived with its status and outcome intact.
	j, ok := ds2.get(done.ID)
	if !ok || j.Status != StatusDone || j.Result == nil || *j.Result != *doneBefore.Result {
		t.Fatalf("done job did not round-trip: %+v", j)
	}
	if j, _ := ds2.get(failed.ID); j.Status != StatusFailed || j.Error != "boom" {
		t.Fatalf("failed job did not round-trip: %+v", j)
	}
	if j, _ := ds2.get(canceled.ID); j.Status != StatusCanceled {
		t.Fatalf("canceled job did not round-trip: %+v", j)
	}
	if j, _ := ds2.get(queued.ID); j.Status != StatusQueued {
		t.Fatalf("queued job did not round-trip: %+v", j)
	}

	// The aggregates replay to the same numbers the live store held.
	after := ds2.aggregate(time.Second)
	if after.Done != before.Done || after.Failed != before.Failed ||
		after.Canceled != before.Canceled || after.Queued != before.Queued ||
		after.UnitRoutes != before.UnitRoutes || after.Conflicts != before.Conflicts {
		t.Fatalf("aggregates drifted across recovery:\nbefore %+v\nafter  %+v", before, after)
	}
	if !reflect.DeepEqual(after.Kinds, before.Kinds) {
		t.Fatalf("per-kind aggregates drifted: %+v != %+v", after.Kinds, before.Kinds)
	}
	if after.LatencyTotalP50Ns != before.LatencyTotalP50Ns ||
		after.LatencyRunP99Ns != before.LatencyRunP99Ns {
		t.Fatalf("latency windows drifted across recovery")
	}
}

func TestRecoveryPreservesAdmissionOrderAndCursors(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, nil)
	now := time.Now()
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now).ID)
	}
	ds.freeze() // crash: nothing after this reaches disk

	ds2 := openDurable(t, dir, nil)
	defer ds2.close()
	if got := ds2.recoveredQueued(); !reflect.DeepEqual(got, ids) {
		t.Fatalf("re-admission order = %v, want original admission order %v", got, ids)
	}

	// Cursor pagination is stable: same ids, newest first, resumable.
	page1, err := ds2.page(ListQuery{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(page1.Jobs) != 2 || page1.Jobs[0].ID != ids[4] || page1.Jobs[1].ID != ids[3] {
		t.Fatalf("first page wrong after recovery: %+v", page1.Jobs)
	}
	page2, err := ds2.page(ListQuery{Limit: 2, Cursor: page1.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Jobs) != 2 || page2.Jobs[0].ID != ids[2] || page2.Jobs[1].ID != ids[1] {
		t.Fatalf("resumed page wrong after recovery: %+v", page2.Jobs)
	}

	// The id sequence continues where it left off — no reuse.
	if j := ds2.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now); j.ID != "job-000006" {
		t.Fatalf("post-recovery admission got id %s, want job-000006", j.ID)
	}
}

func TestRecoveryReexecutesInterruptedRunning(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, nil)
	now := time.Now()
	running := ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
	queued := ds.add(JobSpec{Kind: KindSweep, N: 4}, DefaultTenant, now)
	if _, ok := ds.claim(running.ID, now.Add(time.Millisecond), nil); !ok {
		t.Fatal("claim failed")
	}
	ds.freeze() // crash mid-run

	ds2 := openDurable(t, dir, nil)
	defer ds2.close()
	dur := ds2.durability()
	if dur.ReexecutedRunning != 1 || dur.RecoveredQueued != 1 {
		t.Fatalf("recovery counts wrong: %+v", dur)
	}
	// The interrupted job is queued again — Started cleared, ahead of
	// the job admitted after it.
	j, _ := ds2.get(running.ID)
	if j.Status != StatusQueued || !j.Started.IsZero() {
		t.Fatalf("interrupted job not re-queued: %+v", j)
	}
	want := []string{running.ID, queued.ID}
	if got := ds2.recoveredQueued(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered order %v, want %v", got, want)
	}
	if st := ds2.aggregate(time.Second); st.Running != 0 || st.Queued != 2 {
		t.Fatalf("counts wrong after recovery: %+v", st)
	}
}

func TestRecoveryHonorsRequestedCancel(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, nil)
	now := time.Now()
	j := ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
	if _, ok := ds.claim(j.ID, now.Add(time.Millisecond), nil); !ok {
		t.Fatal("claim failed")
	}
	// DELETE accepted on the running job, then the crash beats the
	// cooperative checkpoint to it.
	if _, err := ds.cancel(j.ID, now.Add(2*time.Millisecond)); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	ds.freeze()

	ds2 := openDurable(t, dir, nil)
	defer ds2.close()
	dur := ds2.durability()
	if dur.CanceledAtRecovery != 1 || dur.ReexecutedRunning != 0 {
		t.Fatalf("recovery counts wrong: %+v", dur)
	}
	got, _ := ds2.get(j.ID)
	if got.Status != StatusCanceled || got.Error == "" {
		t.Fatalf("cancel-requested job not settled as canceled: %+v", got)
	}
	if len(ds2.recoveredQueued()) != 0 {
		t.Fatal("a canceled job was re-queued")
	}
}

func TestTornTailTruncatedAtRecovery(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector()
	inj.Target(walFileName)
	ds := openDurable(t, dir, inj.Open)
	now := time.Now()
	a := ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
	b := ds.add(JobSpec{Kind: KindSweep, N: 4}, DefaultTenant, now)
	// Tear the third record 10 bytes in: its header lands, most of its
	// payload does not — what SIGKILL mid-append leaves behind.
	inj.CutAfterBytes(inj.Written() + 10)
	c := ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
	ds.freeze()

	ds2 := openDurable(t, dir, nil)
	defer ds2.close()
	dur := ds2.durability()
	if dur.TruncatedTailBytes == 0 {
		t.Fatalf("torn tail not detected: %+v", dur)
	}
	if dur.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records, want the 2 intact ones", dur.ReplayedRecords)
	}
	if _, ok := ds2.get(c.ID); ok {
		t.Fatal("the torn record's job survived recovery")
	}
	want := []string{a.ID, b.ID}
	if got := ds2.recoveredQueued(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want the intact prefix %v", got, want)
	}

	// Recovery compacted: a third open sees a clean log, no tail.
	ds2.close()
	ds3 := openDurable(t, dir, nil)
	defer ds3.close()
	if dur := ds3.durability(); dur.TruncatedTailBytes != 0 {
		t.Fatalf("tail reported again after compaction: %+v", dur)
	}
}

func TestCorruptRecordTruncatesTail(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector()
	inj.Target(walFileName)
	ds := openDurable(t, dir, inj.Open)
	now := time.Now()
	a := ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
	// Flip a payload byte of the second record in flight: the frame
	// lands whole but its checksum no longer matches.
	inj.CorruptByteAt(inj.Written() + frameHeaderLen + 4)
	b := ds.add(JobSpec{Kind: KindSweep, N: 4}, DefaultTenant, now)
	c := ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now) // intact, but beyond the corruption
	ds.freeze()

	ds2 := openDurable(t, dir, nil)
	defer ds2.close()
	dur := ds2.durability()
	if dur.TruncatedTailBytes == 0 || dur.ReplayedRecords != 1 {
		t.Fatalf("corrupt record not truncated: %+v", dur)
	}
	if _, ok := ds2.get(a.ID); !ok {
		t.Fatal("the intact prefix was lost")
	}
	// Everything at and after the corruption is gone — replay cannot
	// trust frame boundaries past a bad checksum.
	if _, ok := ds2.get(b.ID); ok {
		t.Fatal("the corrupt record's job survived")
	}
	if _, ok := ds2.get(c.ID); ok {
		t.Fatal("a job beyond the corruption survived")
	}
}

func TestSnapshotCompactionBoundsWALAndSurvivesTmpLeftover(t *testing.T) {
	// Shrink the compaction floor so a handful of small records
	// outgrow it: compaction then follows the snapshot's own size.
	oldFloor := minCompactBytes
	minCompactBytes = 512
	defer func() { minCompactBytes = oldFloor }()
	dir := t.TempDir()
	ds := openDurable(t, dir, nil)
	now := time.Now()
	for i := 0; i < 6; i++ {
		j := ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
		if _, ok := ds.claim(j.ID, now.Add(time.Millisecond), nil); !ok {
			t.Fatal("claim failed")
		}
		ds.finish(j.ID, ScenarioResult{UnitRoutes: 5, OK: true}, nil, now.Add(2*time.Millisecond))
	}
	dur := ds.durability()
	if dur.Snapshots < 2 { // the boot snapshot plus at least one cadence one
		t.Fatalf("compaction never ran: %+v", dur)
	}
	if dur.LastSnapshot.IsZero() {
		t.Fatalf("LastSnapshot unset: %+v", dur)
	}
	if err := ds.close(); err != nil {
		t.Fatal(err)
	}

	// The log only holds the records since the last snapshot — 18
	// records were written, but the file stays bounded.
	if fi, err := os.Stat(filepath.Join(dir, walFileName)); err != nil || fi.Size() > 4*1024 {
		t.Fatalf("wal not compacted: %v, %d bytes", err, fi.Size())
	}

	// A crash mid-snapshot leaves store.snap.tmp behind; recovery
	// ignores and removes it, trusting only the atomically-renamed
	// snapshot.
	tmp := filepath.Join(dir, snapTmpFileName)
	if err := os.WriteFile(tmp, []byte("half-written snapshot garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds2 := openDurable(t, dir, nil)
	defer ds2.close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover snapshot tmp not cleaned up")
	}
	if st := ds2.aggregate(time.Second); st.Done != 6 || st.UnitRoutes != 30 {
		t.Fatalf("state lost across compacted recovery: %+v", st)
	}
}

func TestWALWriteFailureDegradesToMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector()
	inj.Target(walFileName)
	ds := openDurable(t, dir, inj.Open)
	defer ds.close()
	now := time.Now()
	a := ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)

	inj.FailNow()
	b := ds.add(JobSpec{Kind: KindSweep, N: 4}, DefaultTenant, now)

	// The write failure cost durability, not availability: both jobs
	// are served from memory and further transitions keep working.
	dur := ds.durability()
	if dur.Degraded == "" {
		t.Fatalf("WAL failure not reported: %+v", dur)
	}
	for _, id := range []string{a.ID, b.ID} {
		if _, ok := ds.get(id); !ok {
			t.Fatalf("job %s lost after degrade", id)
		}
	}
	if _, ok := ds.claim(b.ID, now.Add(time.Millisecond), nil); !ok {
		t.Fatal("claim refused after degrade")
	}

	// The disk state is the pre-failure prefix: recovery finds job a
	// and nothing of b.
	ds.close()
	ds2 := openDurable(t, dir, nil)
	defer ds2.close()
	if _, ok := ds2.get(a.ID); !ok {
		t.Fatal("pre-failure job lost")
	}
	if _, ok := ds2.get(b.ID); ok {
		t.Fatal("post-failure job resurrected from a WAL that failed to hold it")
	}
}

func TestCorruptSnapshotRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, nil)
	ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, time.Now())
	ds.close()

	snapPath := filepath.Join(dir, snapFileName)
	data, err := os.ReadFile(snapPath)
	if err != nil || len(data) < frameHeaderLen+1 {
		t.Fatalf("snapshot unreadable: %v (%d bytes)", err, len(data))
	}
	data[frameHeaderLen] ^= 0x80 // rot inside the payload
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openStore(dir, nil); err == nil {
		t.Fatal("open accepted a corrupt snapshot — silent state loss")
	}
}

func TestWatchDropsCounted(t *testing.T) {
	old := watchBuffer
	watchBuffer = 0 // every publish to a subscriber drops
	defer func() { watchBuffer = old }()

	st := memStore(t)
	now := time.Now()
	j := st.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now)
	_, ch, stop, err := st.watch(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, ok := st.claim(j.ID, now.Add(time.Millisecond), nil); !ok {
		t.Fatal("claim failed")
	}
	st.finish(j.ID, ScenarioResult{OK: true}, nil, now.Add(2*time.Millisecond))

	// Both transition snapshots (running, done) were dropped — and
	// counted, so the lossiness is observable in /v1/stats.
	if st.aggregate(time.Second).WatchDrops != 2 {
		t.Fatalf("watch drops = %d, want 2", st.aggregate(time.Second).WatchDrops)
	}
	// The terminal close still happened: watchers are not leaked.
	if _, open := <-ch; open {
		t.Fatal("subscriber channel not closed after the terminal transition")
	}
}

// recordFrame encodes rec with encoding/json, the reference encoder,
// and frames it as the WAL does.
func recordFrame(t testing.TB, rec walRecord) []byte {
	t.Helper()
	payload, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame(payload)
}

// frame frames a payload as the WAL does.
func frame(payload []byte) []byte {
	f := append(make([]byte, frameHeaderLen), payload...)
	sealFrame(f)
	return f
}

// runningJobRecords returns the submit and claim records of one sweep
// job, as the WAL holds them.
func runningJobRecords(now time.Time) (submit, claim walRecord) {
	j := Job{ID: "job-000001", Spec: JobSpec{Kind: KindSweep, N: 3}, Tenant: DefaultTenant,
		Shape: "star:3", Status: StatusQueued, Created: now}
	appendTrace(&j, now, TraceSubmitted, "tenant="+DefaultTenant)
	submit = walRecord{LSN: 1, Op: opSubmit, Job: j.snapshot()}
	j.Status, j.Started = StatusRunning, now.Add(time.Millisecond)
	appendTrace(&j, j.Started, TraceClaimed, "")
	return submit, walRecord{LSN: 2, Op: opClaim, Job: j.snapshot()}
}

// TestRecoveryIgnoresTraceRecord replays a log that still holds a
// "trace" record, which earlier versions wrote for the machine_ready
// event: submit, claim, trace, crash. It must recover exactly the
// state the same log recovers without that record.
func TestRecoveryIgnoresTraceRecord(t *testing.T) {
	now := time.Date(2026, 10, 17, 10, 0, 0, 0, time.UTC)
	submit, claim := runningJobRecords(now)
	traced := claim.Job.snapshot()
	appendTrace(&traced, now.Add(2*time.Millisecond), TraceMachineReady, "shape=star:3 built")
	trace := walRecord{LSN: 3, Op: "trace", Job: traced}

	recoverLog := func(recs ...walRecord) (*store, Job) {
		dir := t.TempDir()
		var data []byte
		for _, rec := range recs {
			data = append(data, recordFrame(t, rec)...)
		}
		if err := os.WriteFile(filepath.Join(dir, walFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st := openDurable(t, dir, nil)
		t.Cleanup(func() { st.close() })
		j, ok := st.get(submit.Job.ID)
		if !ok {
			t.Fatal("job lost in recovery")
		}
		// The recovered event is stamped with the clock at open.
		for i := range j.Trace {
			if j.Trace[i].Event == TraceRecovered {
				j.Trace[i].At, j.Trace[i].DurNs = time.Time{}, 0
			}
		}
		return st, j
	}
	with, jobWith := recoverLog(submit, claim, trace)
	without, jobWithout := recoverLog(submit, claim)
	if !reflect.DeepEqual(jobWith, jobWithout) {
		t.Fatalf("trace record changed the recovered job:\nwith    %+v\nwithout %+v", jobWith, jobWithout)
	}
	if a, b := with.aggregate(time.Second), without.aggregate(time.Second); !reflect.DeepEqual(a, b) {
		t.Fatalf("trace record changed the aggregates:\nwith    %+v\nwithout %+v", a, b)
	}
	if a, b := with.recoveredQueued(), without.recoveredQueued(); !reflect.DeepEqual(a, b) || len(a) != 1 {
		t.Fatalf("re-admitted %v with the trace record, %v without", a, b)
	}
	dw, dwo := with.durability(), without.durability()
	if dw.ReexecutedRunning != 1 || dwo.ReexecutedRunning != 1 || dw.TruncatedTailBytes != 0 ||
		dw.ReplayedRecords != 3 || dwo.ReplayedRecords != 2 {
		t.Fatalf("recovery counts with %+v, without %+v", dw, dwo)
	}
}

// TestRecoveryTruncatesUnfoldableFinish replays a CRC-valid finish
// record that replay cannot fold — a done job without its result, or a
// status that is not terminal. Replay treats it as a corrupt record
// and truncates there instead of panicking at boot.
func TestRecoveryTruncatesUnfoldableFinish(t *testing.T) {
	now := time.Date(2026, 10, 17, 10, 0, 0, 0, time.UTC)
	submit, claim := runningJobRecords(now)
	for name, mutate := range map[string]func(*Job){
		"done without result": func(j *Job) { j.Status = StatusDone },
		"non-terminal status": func(j *Job) { j.Result = &ScenarioResult{UnitRoutes: 1, OK: true} },
	} {
		t.Run(name, func(t *testing.T) {
			fin := claim.Job.snapshot()
			fin.Finished = now.Add(3 * time.Millisecond)
			mutate(&fin)
			tail := recordFrame(t, walRecord{LSN: 3, Op: opFinish, Job: fin})
			dir := t.TempDir()
			data := slices.Concat(recordFrame(t, submit), recordFrame(t, claim), tail)
			if err := os.WriteFile(filepath.Join(dir, walFileName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			st := openDurable(t, dir, nil)
			defer st.close()
			dur := st.durability()
			if dur.ReplayedRecords != 2 || dur.TruncatedTailBytes != int64(len(tail)) || dur.ReexecutedRunning != 1 {
				t.Fatalf("unfoldable finish not truncated: %+v", dur)
			}
			if st.aggregate(time.Second).Done != 0 {
				t.Fatal("the truncated finish was folded")
			}
		})
	}
}

func TestSnapshotWithNullJobRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	payload := `{"taken_at":"2026-10-17T10:00:00Z","lsn":1,"next":1,"jobs":[null],"counts":{},"finished":0,"unit_routes":0,"conflicts":0}`
	if err := os.WriteFile(filepath.Join(dir, snapFileName), frame([]byte(payload)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openStore(dir, nil); err == nil || !strings.Contains(err.Error(), "null") {
		t.Fatalf("open of a snapshot with a null job: %v", err)
	}
}

// FuzzWALReplay frames the fuzz payload with a correct checksum, once
// as the record after a valid prefix and once as a snapshot. openStore
// must return a store or an error, never panic, and the prefix must
// always replay.
func FuzzWALReplay(f *testing.F) {
	now := time.Date(2026, 10, 17, 10, 0, 0, 0, time.UTC)
	submit, claim := runningJobRecords(now)
	prefix := slices.Concat(recordFrame(f, submit), recordFrame(f, claim))

	// Seeds: every record and the snapshot a live store writes, plus
	// records replay must refuse.
	dir := f.TempDir()
	ds, err := openStore(dir, nil)
	if err != nil {
		f.Fatal(err)
	}
	a := ds.add(JobSpec{Kind: KindSweep, N: 4, Trials: 2}, DefaultTenant, now)
	ds.claim(a.ID, now, func() {})
	ds.requestPreempt(5, 1)
	ds.finish(a.ID, ScenarioResult{UnitRoutes: 3}, context.Canceled, now)
	ds.claim(a.ID, now, func() {})
	ds.cancel(a.ID, now)
	ds.finish(a.ID, ScenarioResult{UnitRoutes: 4}, context.Canceled, now)
	b := ds.add(JobSpec{Kind: KindSort, N: 3}, DefaultTenant, now)
	ds.claim(b.ID, now, nil)
	ds.finish(b.ID, ScenarioResult{UnitRoutes: 9, OK: true}, nil, now)
	ds.cancel(ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now).ID, now)
	ds.remove(ds.add(JobSpec{Kind: KindSweep, N: 3}, DefaultTenant, now).ID)
	ds.close()
	for _, name := range []string{walFileName, snapFileName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		for off := 0; off < len(data); {
			payload, next, ok := frameAt(data, off)
			if !ok {
				f.Fatalf("%s: bad frame at %d", name, off)
			}
			f.Add(payload)
			off = next
		}
	}
	for _, s := range []string{
		`{"lsn":3,"op":"finish","job":{"id":"job-000001","status":"done"}}`,
		`{"lsn":3,"op":"finish","job":{"id":"job-000001","status":"running","result":{"ok":true}}}`,
		`{"lsn":3,"op":"trace","job":{"id":"job-000001","status":"running"}}`,
		`{"lsn":1,"jobs":[null]}`,
		`null`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		fr := frame(payload)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFileName), slices.Concat(prefix, fr), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := openStore(dir, nil)
		if err != nil {
			t.Fatalf("open of a valid prefix and one record: %v", err)
		}
		dur := st.durability()
		st.close()
		if dur.ReplayedRecords < 2 || (dur.TruncatedTailBytes != 0 && dur.TruncatedTailBytes != int64(len(fr))) {
			t.Fatalf("the valid prefix did not replay: %+v", dur)
		}

		dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapFileName), fr, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := openStore(dir, nil); err == nil {
			st.close()
		}
	})
}

// oldSnapshot is the snapshot format that also stored the live status
// counts, the finished count, the unit-route and conflict totals and
// both latency windows, field for field in the order it wrote them.
type oldSnapshot struct {
	TakenAt    time.Time      `json:"taken_at"`
	LSN        uint64         `json:"lsn"`
	Next       int            `json:"next"`
	Jobs       []*Job         `json:"jobs"`
	Counts     map[Status]int `json:"counts"`
	Finished   int64          `json:"finished"`
	UnitRoutes int64          `json:"unit_routes"`
	Conflicts  int64          `json:"conflicts"`
	ByKind     []KindStats    `json:"by_kind,omitempty"`
	LatTotal   []int64        `json:"lat_total_ns,omitempty"`
	LatRun     []int64        `json:"lat_run_ns,omitempty"`
	WatchDrops int64          `json:"watch_drops,omitempty"`
}

// TestRecoveryLoadsOldSnapshotFormat opens a snapshot in the older
// format, whose extra fields the store now derives from the jobs and
// the per-kind table or no longer keeps: the status counts, per-kind
// totals, unit routes, conflicts and latency percentiles must come
// back as the store that wrote it held them, and its finished count
// must not enter this process's throughput.
func TestRecoveryLoadsOldSnapshotFormat(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, nil)
	now := time.Now()
	var ids []string
	for _, spec := range []JobSpec{{Kind: KindSweep, N: 3}, {Kind: KindSort, N: 3}, {Kind: KindSweep, N: 4},
		{Kind: KindSort, N: 4}, {Kind: KindSweep, N: 3}, {Kind: KindShear, Rows: 4, Cols: 4}} {
		ids = append(ids, ds.add(spec, DefaultTenant, now).ID)
	}
	// Done, failed and canceled mid-run, with distinct latencies.
	for i, err := range []error{nil, errAny, context.Canceled} {
		if _, ok := ds.claim(ids[i], now.Add(time.Millisecond), nil); !ok {
			t.Fatalf("claim %s failed", ids[i])
		}
		ds.finish(ids[i], ScenarioResult{UnitRoutes: 7 + i, Conflicts: 1 + i, OK: true}, err,
			now.Add(time.Duration(2+3*i)*time.Millisecond))
	}
	// Canceled from the queue; still queued; running with a requested
	// cancel, which the reopen below finalizes.
	if _, err := ds.cancel(ids[3], now); err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.claim(ids[5], now, nil); !ok {
		t.Fatalf("claim %s failed", ids[5])
	}
	if _, err := ds.cancel(ids[5], now); err != nil {
		t.Fatal(err)
	}
	ds.close()
	ds = openDurable(t, dir, nil)
	want := ds.aggregate(time.Second)
	ds.mu.Lock()
	snap := ds.buildSnapshot(now)
	old := oldSnapshot{
		TakenAt: snap.TakenAt, LSN: snap.LSN, Next: snap.Next, Jobs: snap.Jobs,
		Counts: map[Status]int{StatusQueued: want.Queued, StatusRunning: want.Running,
			StatusDone: want.Done, StatusFailed: want.Failed, StatusCanceled: want.Canceled},
		Finished: 3, UnitRoutes: want.UnitRoutes, Conflicts: want.Conflicts,
		ByKind: snap.ByKind, WatchDrops: snap.WatchDrops,
	}
	for _, id := range ids[:3] {
		j := ds.jobs[id]
		old.LatTotal = append(old.LatTotal, j.Finished.Sub(j.Created).Nanoseconds())
		old.LatRun = append(old.LatRun, j.RunNs)
	}
	payload, err := json.Marshal(&old)
	ds.mu.Unlock()
	ds.close()
	if err != nil {
		t.Fatal(err)
	}

	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapFileName), frame(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	ds = openDurable(t, dir, nil)
	defer ds.close()
	got := ds.aggregate(time.Second)
	if got.Queued != want.Queued || got.Running != want.Running || got.Done != want.Done ||
		got.Failed != want.Failed || got.Canceled != want.Canceled ||
		got.UnitRoutes != want.UnitRoutes || got.Conflicts != want.Conflicts ||
		!reflect.DeepEqual(got.Kinds, want.Kinds) {
		t.Fatalf("old snapshot loaded other totals:\nwrote %+v\nread  %+v", want, got)
	}
	if got.LatencyTotalP50Ns != want.LatencyTotalP50Ns || got.LatencyTotalP99Ns != want.LatencyTotalP99Ns ||
		got.LatencyRunP50Ns != want.LatencyRunP50Ns || got.LatencyRunP99Ns != want.LatencyRunP99Ns {
		t.Fatalf("old snapshot loaded other latencies:\nwrote %+v\nread  %+v", want, got)
	}
	if got.ThroughputJobsPerSec != 0 {
		t.Fatalf("old snapshot's finished count read as this process's throughput: %v jobs/s", got.ThroughputJobsPerSec)
	}
	if want.Queued != 1 || want.Canceled != 3 || want.Done != 1 || want.Failed != 1 {
		t.Fatalf("the store that wrote the snapshot holds %+v, want 1 queued, 1 done, 1 failed, 3 canceled", want)
	}
}

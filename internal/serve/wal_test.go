// Store-level tests of the WAL-backed durable store: round-trip
// persistence, recovery ordering, torn/corrupt tail handling (via the
// faultfs injector — the byte streams a crash leaves behind, without
// kill -9), snapshot compaction and the degraded memory-only mode.
package serve

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
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

// Priority-preemption tests: a higher-priority submission bounces a
// running lower-priority multi-trial sweep back to its tenant queue
// at the cancellation checkpoint, the victim re-executes
// bit-identically, a user cancel always wins over a preempt, and the
// preempt requeue survives a crash through its WAL record.
package serve

import (
	"context"
	"testing"
	"time"

	"starmesh/internal/workload"
)

// hasTrace reports whether a job's timeline carries the event.
func hasTrace(j Job, event string) bool {
	for _, ev := range j.Trace {
		if ev.Event == event {
			return true
		}
	}
	return false
}

// TestPreemptRequeuesAndReplaysBitIdentical is the preemption
// acceptance test: on a saturated one-worker service a priority-5
// submission preempts the running priority-0 sweep; the victim
// requeues with a preempted trace and partial stats, the preemptor
// jumps it in the queue, and the victim's eventual re-execution
// matches a standalone run bit for bit.
func TestPreemptRequeuesAndReplaysBitIdentical(t *testing.T) {
	svc, err := NewService(Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	// ~0.6s of work at ~1.2µs/trial: long enough that the preemptor
	// always lands while it runs, short enough to re-execute twice.
	victimSpec := JobSpec{Kind: KindSweep, N: 4, Trials: 500_000, Seed: 3}
	victim := submitOrDie(t, svc, victimSpec)
	waitRunning(t, svc, victim.ID)
	time.Sleep(2 * time.Millisecond) // accumulate partial work to carry through the requeue

	hi := submitOrDie(t, svc, JobSpec{Kind: KindSweep, N: 3, Priority: 5})

	hiFinal := waitTerminal(t, svc, hi.ID)
	if hiFinal.Status != StatusDone {
		t.Fatalf("preemptor ended %s: %s", hiFinal.Status, hiFinal.Error)
	}
	final := waitTerminal(t, svc, victim.ID)
	if final.Status != StatusDone {
		t.Fatalf("preempted sweep ended %s: %s", final.Status, final.Error)
	}
	if final.Preemptions != 1 {
		t.Fatalf("victim records %d preemptions, want 1", final.Preemptions)
	}
	if !hasTrace(final, TracePreempted) {
		t.Fatalf("victim timeline lacks the %q event: %+v", TracePreempted, final.Trace)
	}
	// The single worker must have run the preemptor before the
	// victim's re-execution — that is what the priority bought.
	if hiFinal.Finished.After(final.Finished) {
		t.Fatalf("preemptor finished at %v, after the victim it bumped (%v)",
			hiFinal.Finished, final.Finished)
	}
	// Re-execution parity: the interrupted-then-replayed sweep ends
	// with exactly the standalone result, partial stats overwritten.
	got := *final.Result
	got.Name, got.ElapsedNs = "", 0
	if want := standaloneResult(t, victimSpec); got != want {
		t.Fatalf("preempted sweep diverged from standalone run: %+v != %+v", got, want)
	}
	if st := svc.Stats(); st.Done != 2 || st.Canceled != 0 {
		t.Fatalf("stats after preempt round-trip: %+v", st)
	}
}

// TestPreemptRequiresSaturationAndPriority pins maybePreempt's
// guards: a free worker means no preemption (the new job just gets
// picked up), and a priority-0 submission never preempts anything.
func TestPreemptRequiresSaturationAndPriority(t *testing.T) {
	t.Run("free worker", func(t *testing.T) {
		svc, err := NewService(Config{Workers: 2, Queue: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Drain()
		victim := submitOrDie(t, svc, JobSpec{Kind: KindSweep, N: 4, Trials: 200_000})
		waitRunning(t, svc, victim.ID)
		hi := submitOrDie(t, svc, JobSpec{Kind: KindSweep, N: 3, Priority: 9})
		if j := waitTerminal(t, svc, hi.ID); j.Status != StatusDone {
			t.Fatalf("priority job ended %s", j.Status)
		}
		if j := waitTerminal(t, svc, victim.ID); j.Status != StatusDone || j.Preemptions != 0 {
			t.Fatalf("sweep preempted despite a free worker: status %s, preemptions %d",
				j.Status, j.Preemptions)
		}
	})
	t.Run("priority zero", func(t *testing.T) {
		svc, err := NewService(Config{Workers: 1, Queue: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Drain()
		victim := submitOrDie(t, svc, JobSpec{Kind: KindSweep, N: 4, Trials: 200_000})
		waitRunning(t, svc, victim.ID)
		peer := submitOrDie(t, svc, JobSpec{Kind: KindSweep, N: 3})
		if j := waitTerminal(t, svc, victim.ID); j.Status != StatusDone || j.Preemptions != 0 {
			t.Fatalf("sweep preempted by a default-priority peer: status %s, preemptions %d",
				j.Status, j.Preemptions)
		}
		if j := waitTerminal(t, svc, peer.ID); j.Status != StatusDone {
			t.Fatalf("peer ended %s", j.Status)
		}
	})
}

// TestRequestPreemptSelection drives the store's victim selection
// directly: lowest priority loses, ties break to the most recently
// started run (least sunk work), non-sweeps and jobs already being
// canceled or preempted are never candidates.
func TestRequestPreemptSelection(t *testing.T) {
	st := memStore(t)
	now := time.Now()
	claim := func(spec JobSpec, at time.Time) (string, context.Context) {
		t.Helper()
		j := st.add(spec, "t", at)
		ctx, cancel := context.WithCancel(context.Background())
		if _, ok := st.claim(j.ID, at, cancel); !ok {
			t.Fatalf("claim %s failed", j.ID)
		}
		return j.ID, ctx
	}
	sweep := JobSpec{Kind: KindSweep, N: 3, Trials: 50}
	lowOld, ctxLowOld := claim(sweep, now)
	lowNew, ctxLowNew := claim(sweep, now.Add(10*time.Millisecond))
	midSpec := sweep
	midSpec.Priority = 2
	mid, ctxMid := claim(midSpec, now.Add(20*time.Millisecond))
	_, ctxSort := claim(JobSpec{Kind: KindSort, N: 4, Dist: "uniform"}, now.Add(30*time.Millisecond))

	// Priority 1 sees the two priority-0 sweeps; the tie breaks to
	// the one that started later.
	if id, ok := st.requestPreempt(1, now); !ok || id != lowNew {
		t.Fatalf("first victim = %q, %t; want the most recently started %q", id, ok, lowNew)
	}
	if ctxLowNew.Err() == nil {
		t.Fatal("victim's run context was not canceled")
	}
	if id, ok := st.requestPreempt(1, now); !ok || id != lowOld {
		t.Fatalf("second victim = %q, %t; want %q", id, ok, lowOld)
	}
	if ctxLowOld.Err() == nil {
		t.Fatal("second victim's run context was not canceled")
	}
	// Nothing below priority 1 is left running.
	if id, ok := st.requestPreempt(1, now); ok {
		t.Fatalf("priority 1 found a third victim %q", id)
	}
	// Priority 9 reaches the priority-2 sweep — but never the sort,
	// which is not preemptible no matter the priority gap.
	if id, ok := st.requestPreempt(9, now); !ok || id != mid {
		t.Fatalf("priority-9 victim = %q, %t; want %q", id, ok, mid)
	}
	if ctxMid.Err() == nil {
		t.Fatal("mid victim's run context was not canceled")
	}
	if id, ok := st.requestPreempt(9, now); ok {
		t.Fatalf("non-sweep selected as victim: %q", id)
	}
	if ctxSort.Err() != nil {
		t.Fatal("sort job's context canceled without being a victim")
	}

	// A running job with a user cancel in flight is off limits: the
	// cancel must win, not be laundered into a requeue.
	crID, _ := claim(sweep, now.Add(40*time.Millisecond))
	if _, err := st.cancel(crID, now.Add(41*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if id, ok := st.requestPreempt(9, now); ok {
		t.Fatalf("cancel-requested job selected as victim: %q", id)
	}
}

// TestUserCancelBeatsPreempt races a user cancel against a
// preemption of the same running sweep: whichever checkpoint path
// fires first, the job must end terminal canceled — never silently
// requeued past the user's DELETE, never done.
func TestUserCancelBeatsPreempt(t *testing.T) {
	svc, err := NewService(Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	victim := submitOrDie(t, svc, JobSpec{Kind: KindSweep, N: 4, Trials: 1_000_000})
	waitRunning(t, svc, victim.ID)
	hi := submitOrDie(t, svc, JobSpec{Kind: KindSweep, N: 3, Priority: 5})
	if _, err := svc.Cancel(victim.ID); err != nil {
		t.Fatalf("cancel of the preempted job: %v", err)
	}
	final := waitTerminal(t, svc, victim.ID)
	if final.Status != StatusCanceled {
		t.Fatalf("canceled victim ended %s, want canceled", final.Status)
	}
	if j := waitTerminal(t, svc, hi.ID); j.Status != StatusDone {
		t.Fatalf("preemptor ended %s", j.Status)
	}
}

// TestPreemptRequeueSurvivesCrash stages a preemption on a durable
// store by hand — claim, preempt, checkpoint abort — then crashes
// before the victim re-runs. The opPreempt WAL record must bring it
// back QUEUED with its preemption count and trace intact, and the
// restarted service must run it to a standalone-identical result.
func TestPreemptRequeueSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	svc, err := newService(Config{Workers: 1, Queue: 8, StoreDir: dir}, false)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Kind: KindSweep, N: 4, Trials: 60, Seed: 11}
	victim, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	_, cancel := context.WithCancel(context.Background())
	if _, ok := svc.store.claim(victim.ID, now, cancel); !ok {
		t.Fatal("claim failed")
	}
	if id, ok := svc.store.requestPreempt(5, now); !ok || id != victim.ID {
		t.Fatalf("requestPreempt = %q, %t", id, ok)
	}
	// The checkpoint abort: the runner surfaces context.Canceled with
	// its partial stats, and finish reports a requeue, not a finish.
	partial := workload.ScenarioResult{UnitRoutes: 17}
	if requeued := svc.store.finish(victim.ID, partial, context.Canceled, now.Add(time.Millisecond)); !requeued {
		t.Fatal("preempt checkpoint did not requeue")
	}

	crash(t, svc)

	svc2, err := NewService(Config{Workers: 1, Queue: 8, StoreDir: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer svc2.Drain()
	if dur := svc2.Durability(); dur.RecoveredQueued != 1 {
		t.Fatalf("preempt-requeued job not recovered as queued: %+v", dur)
	}
	final := waitTerminal(t, svc2, victim.ID)
	if final.Status != StatusDone {
		t.Fatalf("recovered victim ended %s: %s", final.Status, final.Error)
	}
	if final.Preemptions != 1 || !hasTrace(final, TracePreempted) {
		t.Fatalf("preemption history lost across the crash: preemptions %d, trace %+v",
			final.Preemptions, final.Trace)
	}
	got := *final.Result
	got.Name, got.ElapsedNs = "", 0
	if want := standaloneResult(t, spec); got != want {
		t.Fatalf("recovered victim diverged from standalone run: %+v != %+v", got, want)
	}
}

// TestRecoveryPreservesPerTenantOrder crashes a durable service with
// a multi-tenant backlog and requires the restart to rebuild each
// tenant's queue in admission order — the scheduler then interleaves
// them by DRR exactly as it would have before the crash.
func TestRecoveryPreservesPerTenantOrder(t *testing.T) {
	tenants := []TenantConfig{
		{Name: "a", Key: "key-a", Weight: 1},
		{Name: "b", Key: "key-b", Weight: 1},
	}
	dir := t.TempDir()
	svc, err := newService(Config{Workers: 1, Queue: 16, StoreDir: dir, Tenants: tenants}, false)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(key string) string {
		t.Helper()
		j, err := svc.SubmitWithKey(key, JobSpec{Kind: KindSweep, N: 3})
		if err != nil {
			t.Fatal(err)
		}
		return j.ID
	}
	// a's queue fills faster than b's: a1 a2 b1 a3 b2.
	a1, a2 := submit("key-a"), submit("key-a")
	b1 := submit("key-b")
	a3 := submit("key-a")
	b2 := submit("key-b")

	crash(t, svc)

	svc2, err := newService(Config{Workers: 1, Queue: 16, StoreDir: dir, Tenants: tenants}, false)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := svc2.sched.queuedFor("a"); got != 3 {
		t.Fatalf("tenant a recovered %d queued, want 3", got)
	}
	if got := svc2.sched.queuedFor("b"); got != 2 {
		t.Fatalf("tenant b recovered %d queued, want 2", got)
	}
	// Drain the scheduler directly (workers held back): per-tenant
	// FIFO order survived, and equal weights interleave one for one.
	want := []string{a1, b1, a2, b2, a3}
	if got := drainWFQ(t, svc2.sched, 5); !equalStrings(got, want) {
		t.Fatalf("post-recovery drain order %v, want %v", got, want)
	}
	crash(t, svc2)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

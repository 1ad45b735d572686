package serve

import (
	"context"
	"errors"
	"starmesh/internal/workload"
	"testing"
	"time"
)

// testSpecs is a small mixed workload covering every kind and both
// machine shapes.
func testSpecs() []JobSpec {
	return []JobSpec{
		{Kind: KindSort, N: 4, Dist: "uniform", Seed: 7},
		{Kind: KindSort, N: 4, Dist: "reversed", Seed: 7},
		{Kind: KindShear, Rows: 8, Cols: 8, Dist: "uniform", Seed: 11},
		{Kind: KindBroadcast, N: 4, Source: 1},
		{Kind: KindSweep, N: 4},
		{Kind: KindFaultRoute, N: 4, Faults: 2, Pairs: 8, Seed: 13},
	}
}

// waitTerminal polls a job to a terminal status.
func waitTerminal(t *testing.T, s *Service, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if job.Status.Terminal() {
			return job
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("job %s never finished", id)
	return Job{}
}

func TestServiceResultsMatchStandaloneRuns(t *testing.T) {
	svc, err := NewService(Config{Workers: 2, Queue: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	// Submit every spec twice: the second run of each spec lands on a
	// pooled (reset) machine, so this exercises reuse, not just
	// first-build.
	var ids []string
	for round := 0; round < 2; round++ {
		for _, spec := range testSpecs() {
			job, err := svc.Submit(spec)
			if err != nil {
				t.Fatalf("submit %+v: %v", spec, err)
			}
			ids = append(ids, job.ID)
		}
	}
	specs := append(testSpecs(), testSpecs()...)
	for i, id := range ids {
		job := waitTerminal(t, svc, id)
		if job.Status != StatusDone {
			t.Fatalf("job %s (%+v) ended %s: %s", id, job.Spec, job.Status, job.Error)
		}
		sc, err := workload.ScenarioFor(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := *job.Result
		got.Name, got.ElapsedNs = "", 0
		want.Name, want.ElapsedNs = "", 0
		if got != want {
			t.Fatalf("job %s diverged from standalone run: %+v != %+v", id, got, want)
		}
	}

	stats := svc.Stats()
	if stats.Done != len(ids) || stats.Failed != 0 {
		t.Fatalf("stats wrong: %+v", stats)
	}
	if stats.UnitRoutes == 0 || stats.LatencyTotalP50Ns == 0 || stats.LatencyRunP99Ns == 0 {
		t.Fatalf("aggregates missing: %+v", stats)
	}
	var reuses int64
	for _, p := range stats.Pools {
		reuses += p.Reuses
	}
	if reuses == 0 {
		t.Fatalf("second round never reused a pooled machine: %+v", stats.Pools)
	}
}

func TestUnpooledServiceMatchesPooled(t *testing.T) {
	run := func(noPool bool) []Job {
		svc, err := NewService(Config{Workers: 2, Queue: 32, NoPool: noPool})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Drain()
		var jobs []Job
		for _, spec := range testSpecs() {
			j, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		out := make([]Job, len(jobs))
		for i, j := range jobs {
			out[i] = waitTerminal(t, svc, j.ID)
		}
		return out
	}
	pooled := run(false)
	unpooled := run(true)
	for i := range pooled {
		p, u := pooled[i].Result, unpooled[i].Result
		if p == nil || u == nil {
			t.Fatalf("missing result: pooled %+v, unpooled %+v", pooled[i], unpooled[i])
		}
		if p.UnitRoutes != u.UnitRoutes || p.Conflicts != u.Conflicts || p.OK != u.OK {
			t.Fatalf("pooled and unpooled results diverged for %+v: %+v != %+v",
				pooled[i].Spec, p, u)
		}
	}
}

func TestSubmitBackpressure(t *testing.T) {
	// A stopped service (no workers) keeps jobs queued, so the
	// bounded queue is observable deterministically.
	svc, err := newService(Config{Queue: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Kind: KindSweep, N: 3}
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit returned %v, want ErrQueueFull", err)
	}
	// The rejected job left no trace in the store.
	if page, err := svc.ListJobs(ListQuery{}); err != nil || len(page.Jobs) != 2 {
		t.Fatalf("store holds %d jobs after rejection (%v), want 2", len(page.Jobs), err)
	}
	svc.Drain()
}

func TestCancelQueuedJobSkippedByWorker(t *testing.T) {
	svc, err := newService(Config{Queue: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := svc.Submit(JobSpec{Kind: KindSweep, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Submit(JobSpec{Kind: KindSweep, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := svc.Cancel(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.Status != StatusCanceled {
		t.Fatalf("cancel left status %s", canceled.Status)
	}
	// Drive the worker loop by hand: the canceled job must be
	// skipped, the other must run.
	svc.runJob(a.ID)
	svc.runJob(b.ID)
	if job, _ := svc.Job(a.ID); job.Status != StatusCanceled {
		t.Fatalf("worker resurrected a canceled job: %s", job.Status)
	}
	if job, _ := svc.Job(b.ID); job.Status != StatusDone {
		t.Fatalf("queued job did not run: %s (%s)", job.Status, job.Error)
	}
	// Finished jobs are not cancelable.
	if _, err := svc.Cancel(b.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("cancel of a done job returned %v, want ErrTerminal", err)
	}
	if _, err := svc.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown job returned %v, want ErrNotFound", err)
	}
	if stats := svc.Stats(); stats.Canceled != 1 || stats.Done != 1 {
		t.Fatalf("stats wrong after cancel: %+v", stats)
	}
	svc.pools.closeAll()
}

func TestDrainRunsAdmittedJobsThenRejects(t *testing.T) {
	svc, err := NewService(Config{Workers: 1, Queue: 32})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 8; i++ {
		j, err := svc.Submit(JobSpec{Kind: KindSort, N: 4, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	svc.Drain() // must block until every admitted job completed
	for _, id := range ids {
		job, _ := svc.Job(id)
		if job.Status != StatusDone {
			t.Fatalf("job %s not completed by drain: %s (%s)", id, job.Status, job.Error)
		}
	}
	if _, err := svc.Submit(JobSpec{Kind: KindSweep, N: 3}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain returned %v, want ErrDraining", err)
	}
	if !svc.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	svc.Drain() // idempotent
}

func TestInvalidSpecsRejected(t *testing.T) {
	svc, err := newService(Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	bad := []JobSpec{
		{},                            // no kind
		{Kind: "warp", N: 4},          // unknown kind
		{Kind: KindSort, N: 1},        // n too small
		{Kind: KindSort, N: MaxN + 1}, // n too large
		{Kind: KindSort, N: 4, Dist: "gaussian"},
		{Kind: KindShear, Rows: 0, Cols: 9},
		{Kind: KindShear, Rows: 1 << 10, Cols: 1 << 10},
		{Kind: KindBroadcast, N: 4, Source: -1},
		{Kind: KindBroadcast, N: 4, Source: 24},
		{Kind: KindFaultRoute, N: 4, Faults: 3},
		{Kind: KindFaultRoute, N: 4, Faults: 1, Pairs: -2},
	}
	for _, spec := range bad {
		if _, err := svc.Submit(spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("spec %+v returned %v, want ErrInvalidSpec", spec, err)
		}
	}
	// Defaults: empty dist means uniform, pairs defaults to 1.
	norm, err := JobSpec{Kind: KindSort, N: 4}.Normalized()
	if err != nil || norm.Dist != "uniform" {
		t.Fatalf("sort default dist: %+v, %v", norm, err)
	}
	norm, err = JobSpec{Kind: KindFaultRoute, N: 4, Faults: 2}.Normalized()
	if err != nil || norm.Pairs != 1 {
		t.Fatalf("faultroute default pairs: %+v, %v", norm, err)
	}
	svc.Drain()
}

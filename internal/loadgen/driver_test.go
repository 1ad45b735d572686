package loadgen

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"starmesh/internal/serve"
)

// fakeTarget is an in-memory target: each submission is done at once
// with whatever result the test's function returns, after a fixed
// number of 429 retries; Await waits delay before answering.
type fakeTarget struct {
	onRetry func()
	retries int
	delay   time.Duration
	result  func(spec JobSpec) ScenarioResult
	jobs    map[string]Job
}

func (f *fakeTarget) Submit(_ context.Context, spec JobSpec) (Job, error) {
	for range f.retries {
		f.onRetry()
	}
	norm, err := spec.Normalized()
	if err != nil {
		return Job{}, err
	}
	res := f.result(norm)
	job := Job{ID: fmt.Sprint(len(f.jobs)), Spec: norm, Status: serve.StatusDone, Result: &res}
	f.jobs[job.ID] = job
	return Job{ID: job.ID, Spec: norm, Status: serve.StatusQueued}, nil
}

func (f *fakeTarget) Await(_ context.Context, id string) (Job, error) {
	time.Sleep(f.delay)
	return f.jobs[id], nil
}

// fakeLoop is a closed loop over fresh fake targets.
func fakeLoop(clients, retries int, delay time.Duration, result func(JobSpec) ScenarioResult) closedLoop {
	return closedLoop{
		clients: clients,
		dial: func(_ int, onRetry func()) (target, error) {
			return &fakeTarget{onRetry: onRetry, retries: retries, delay: delay, result: result, jobs: map[string]Job{}}, nil
		},
		specs: testSpecs()[:2],
	}
}

func fixedResult(JobSpec) ScenarioResult { return ScenarioResult{UnitRoutes: 7, OK: true} }

func TestDriveCountStop(t *testing.T) {
	cfg := fakeLoop(3, 0, 0, fixedResult)
	cfg.jobs = 4
	r, err := drive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.outcomes) != 12 {
		t.Fatalf("%d outcomes, want 3 clients × 4 jobs", len(r.outcomes))
	}
	for i, o := range r.outcomes {
		if o.client != i/4 {
			t.Fatalf("outcome %d from client %d, want client-then-job order", i, o.client)
		}
	}
	res, err := fold(r.outcomes, r.elapsed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 12 || res.Failed != 0 || len(res.BySpec) != 2 {
		t.Fatalf("fold: %+v", res)
	}
}

func TestDriveDeadlineStop(t *testing.T) {
	const until, delay = 50 * time.Millisecond, 2 * time.Millisecond
	cfg := fakeLoop(2, 0, delay, fixedResult)
	cfg.until = until
	r, err := drive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perClient := make([]int, 2)
	for _, o := range r.outcomes {
		perClient[o.client]++
		if started := o.finished.Add(-o.latency); started.Sub(r.start) >= until {
			t.Fatalf("a job started %v into a %v run", started.Sub(r.start), until)
		}
	}
	if perClient[0] < 2 || perClient[1] < 2 {
		t.Fatalf("jobs per client %v: the run stopped before its deadline", perClient)
	}
	if r.elapsed < until {
		t.Fatalf("run took %v, stopped before its %v deadline", r.elapsed, until)
	}
}

func TestDriveRejectsAmbiguousStop(t *testing.T) {
	cfg := fakeLoop(1, 0, 0, fixedResult)
	if _, err := drive(cfg); err == nil {
		t.Fatal("a loop without a stop was accepted")
	}
	cfg.jobs, cfg.until = 1, time.Second
	if _, err := drive(cfg); err == nil {
		t.Fatal("a loop with two stops was accepted")
	}
}

func TestDriveCountsRetries(t *testing.T) {
	cfg := fakeLoop(2, 3, 0, fixedResult)
	cfg.jobs = 5
	r, err := drive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range r.outcomes {
		if o.rejected != 3 {
			t.Fatalf("outcome counted %d retries, want 3", o.rejected)
		}
	}
	if res, err := fold(r.outcomes, r.elapsed); err != nil || res.Rejected != 30 {
		t.Fatalf("fold counted %d retries (err %v), want 30", res.Rejected, err)
	}
}

// TestFoldPercentiles: fold reads the latency p50 and p99 and the
// queue-wait p99 from log-bucket counts, within 1% of nearest rank.
// The latencies are 1..100 ms scrambled, the waits twice that.
func TestFoldPercentiles(t *testing.T) {
	res := fixedResult(JobSpec{})
	var outcomes []outcome
	for i := range 100 {
		ms := time.Duration(1+(i*37)%100) * time.Millisecond
		outcomes = append(outcomes, outcome{latency: ms, job: Job{
			Spec: testSpecs()[0], Status: serve.StatusDone, Result: &res, WaitNs: 2 * ms.Nanoseconds(),
		}})
	}
	within := func(got int64, exact time.Duration) bool { // |got − exact| ≤ 1%·exact + ½ ns
		d := got - exact.Nanoseconds()
		return 200*max(d, -d) <= 2*exact.Nanoseconds()+100
	}
	got, err := fold(outcomes, time.Second)
	if err != nil || !within(got.LatencyP50Ns, 50*time.Millisecond) || !within(got.LatencyP99Ns, 99*time.Millisecond) ||
		!within(got.QueueWaitP99Ns, 198*time.Millisecond) {
		t.Fatalf("fold: %+v, %v; want latency p50 50 ms and p99 99 ms, wait p99 198 ms, within 1%%", got, err)
	}
}

func TestFoldRejectsDivergingResults(t *testing.T) {
	calls := 0
	cfg := fakeLoop(1, 0, 0, func(JobSpec) ScenarioResult {
		calls++
		return ScenarioResult{UnitRoutes: calls, OK: true}
	})
	cfg.jobs = 3 // the first spec runs twice, with different results
	r, err := drive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fold(r.outcomes, r.elapsed)
	want := r.outcomes[0].job.Spec.Name()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("fold error %v, want one naming spec %s", err, want)
	}
}

func TestOracleCatchesDivergence(t *testing.T) {
	specs := testSpecs()[:2]
	ref, err := newOracle(specs)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(offBy int) error {
		cfg := fakeLoop(2, 0, 0, func(spec JobSpec) ScenarioResult {
			res := ref[spec.Name()]
			res.UnitRoutes += offBy
			return res
		})
		cfg.jobs = 2
		r, err := drive(cfg)
		if err != nil {
			return err
		}
		res, err := fold(r.outcomes, r.elapsed)
		if err != nil {
			return err
		}
		return ref.check("fake", res.BySpec)
	}
	if err := runWith(0); err != nil {
		t.Fatalf("standalone-identical results failed parity: %v", err)
	}
	if err := runWith(1); err == nil || !strings.Contains(err.Error(), "diverged from standalone run") {
		t.Fatalf("a unit-route count off by one passed parity: %v", err)
	}
}

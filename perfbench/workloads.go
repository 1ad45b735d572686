package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"starmesh/client"
	"starmesh/internal/serve"
	"starmesh/internal/workload"
)

// workloadDef is one traffic mix. Every workload is closed loop: a
// caller sends its next request only after the previous one returned.
// Every workload also reads, so that every one reports the read
// metrics: on tiny-mixed each caller Gets each job after awaiting it,
// and on durable-rw a dedicated reader rotates through List(limit 50),
// Get and Stats back to back.
//
// There is no workload where plan replay dominates. One ran
// multi-trial sweeps on S_7 and S_6 (and before that S_8), but on a
// 2-vCPU host shared with other tenants its jobs_per_s spread
// 0.17-0.32 of its median over sets of five and ten runs of the same
// code, against the 0.25 bound, whichever shapes it ran. Plan replay is measured by the layer probes of every
// traced run instead (simd.replay_ns_per_route.*, workload.run_ms.*).
type workloadDef struct {
	name string
	// durable puts the job store on the WAL.
	durable bool
	// specs draws, from the workload seed, the spec set the load cycles
	// through.
	specs func(rng *rand.Rand) []serve.JobSpec
	// drive runs the load until l.deadline and returns one tally per
	// load goroutine, after all of them have returned.
	drive func(ctx context.Context, l *load) []*tally
}

var workloads = []workloadDef{
	{
		// One small spec per registry family: engine work is a small
		// share of a job, so HTTP, admission, the scheduler, the store,
		// the pool and watch publishing dominate.
		name:  "tiny-mixed",
		specs: tinySpecs,
		drive: func(ctx context.Context, l *load) []*tally { return l.callers(ctx) },
	},
	{
		// The WAL store past its retention bound: appends, snapshots and
		// eviction run under the store lock that the reader's List, Get
		// and Stats also take, so a write-side gain that costs reads
		// shows.
		name:    "durable-rw",
		durable: true,
		specs:   tinySpecs,
		drive:   func(ctx context.Context, l *load) []*tally { return l.writerAndReader(ctx) },
	},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// tinyRounds is how many seeded variants of each small spec the
// tiny-mixed set holds.
const tinyRounds = 4

// tinySpecs is one small spec per registry family, tinyRounds times
// with fresh seeds, each round in a seeded order.
func tinySpecs(rng *rand.Rand) []serve.JobSpec {
	seed := func() int64 { return rng.Int63n(1 << 31) }
	var out []serve.JobSpec
	for r := 0; r < tinyRounds; r++ {
		round := []serve.JobSpec{
			{Kind: workload.KindBroadcast, N: 5, Source: rng.Intn(120)},
			{Kind: workload.KindEmbedRect, N: 5, D: 2},
			{Kind: workload.KindDiagnostics, N: 5, Holes: 3, Trials: 2, Seed: seed()},
			{Kind: workload.KindFaultRoute, N: 5, Faults: 3, Pairs: 4, Seed: seed()},
			{Kind: workload.KindPermRoute, N: 4, Pattern: "random", Seed: seed()},
			{Kind: workload.KindShear, Rows: 8, Cols: 8, Dist: "uniform", Seed: seed()},
			{Kind: workload.KindSort, N: 4, Dist: "uniform", Seed: seed()},
			{Kind: workload.KindSweep, N: 5},
			{Kind: workload.KindVirtual, N: 3, Dist: "uniform", Seed: seed()},
			{Kind: workload.KindPipeline, N: 4, D: 2, Dist: "uniform", Seed: seed(), Source: rng.Intn(24)},
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out = append(out, round...)
	}
	return out
}

// load is one timed phase's shared state.
type load struct {
	base     string
	specs    []serve.JobSpec
	refs     []reference
	start    time.Time
	deadline time.Time
	traced   bool
	// recent is the id of a recently submitted job, for the durable-rw
	// reader's Get.
	recent atomic.Pointer[string]
}

// The read kinds, in the order a reader rotates through them.
const (
	readList = iota
	readGet
	readStats
	readKinds
)

var readNames = [readKinds]string{"list", "get", "stats"}

// The per-job layer timings of a traced phase, in ms.
const (
	layerSubmit     = iota // the Submit or SubmitBatch call
	layerSubmitLeg         // from the call to the job's submitted trace event
	layerAwait             // the Await call
	layerPublishLag        // from the terminal trace event to Await's return
	layerQueueWait         // submitted → claimed
	layerCheckout          // claimed → machine_ready
	layerRun               // machine_ready → done
	numLayers
)

var layerNames = [numLayers]string{
	"client.submit_ms", "client.submit_leg_ms", "client.await_ms", "client.publish_lag_ms",
	"serve.queue_wait_ms", "serve.checkout_ms", "serve.run_ms",
}

// durableBatch is how many specs the durable-rw writer submits per
// SubmitBatch call.
const durableBatch = 10

// window is the length of the windows whose job counts are printed
// beside the figures, so that a stretch slowed from outside shows.
const window = time.Second

// counts are the fixed-size part of a phase's record.
type counts struct {
	jobs, done, failed int
	reads, readFailed  int
	// routes is the star unit routes of the done jobs.
	routes        int64
	built, reused int
	errs          []string
}

const maxErrs = 5

func (c *counts) note(err error) {
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, err.Error())
	}
}

func (c *counts) add(o *counts) {
	c.jobs += o.jobs
	c.done += o.done
	c.failed += o.failed
	c.reads += o.reads
	c.readFailed += o.readFailed
	c.routes += o.routes
	c.built += o.built
	c.reused += o.reused
	for _, e := range o.errs {
		if len(c.errs) < maxErrs {
			c.errs = append(c.errs, e)
		}
	}
}

// tally is one load goroutine's record of a phase, with every latency
// sample (ms). The layer dists are filled only in a traced phase.
type tally struct {
	counts
	// start is the phase start, the origin of perWin.
	start time.Time
	// perWin is the number of jobs done in each window.
	perWin  []int
	jobLat  dist
	readLat [readKinds]dist
	layer   [numLayers]dist
}

// job records one job from its submit to the return of its Await.
func (t *tally) job(ref reference, j serve.Job, err error, submitted, awaitStart, end time.Time, traced bool) {
	t.jobs++
	if err == nil {
		err = ref.check(j)
	}
	var sp spans
	if err == nil && traced {
		sp, err = spansOf(j)
	}
	if err != nil {
		t.failed++
		t.note(err)
		return
	}
	t.done++
	t.routes += int64(j.Result.UnitRoutes)
	w := max(int(end.Sub(t.start)/window), 0)
	for len(t.perWin) <= w {
		t.perWin = append(t.perWin, 0)
	}
	t.perWin[w]++
	t.jobLat.addDur(end.Sub(submitted), time.Millisecond)
	if !traced {
		return
	}
	// layerSubmit is timed around the call by the caller.
	t.layer[layerSubmitLeg].addDur(sp.submitted.Sub(submitted), time.Millisecond)
	t.layer[layerAwait].addDur(end.Sub(awaitStart), time.Millisecond)
	t.layer[layerPublishLag].addDur(end.Sub(sp.terminal), time.Millisecond)
	t.layer[layerQueueWait].addDur(sp.queue, time.Millisecond)
	t.layer[layerCheckout].addDur(sp.checkout, time.Millisecond)
	t.layer[layerRun].addDur(sp.run, time.Millisecond)
	if sp.reused {
		t.reused++
	} else {
		t.built++
	}
}

// jobFailed records a job whose submission failed.
func (t *tally) jobFailed(err error) {
	t.jobs++
	t.failed++
	t.note(err)
}

// read issues one read of the given kind, checks its answer and
// records it.
func (t *tally) read(ctx context.Context, cl *client.Client, kind int, id string) {
	t0 := time.Now()
	err := readOnce(ctx, cl, kind, id)
	d := time.Since(t0)
	t.reads++
	if err != nil {
		t.readFailed++
		t.note(err)
		return
	}
	t.readLat[kind].addDur(d, time.Millisecond)
}

func (t *tally) merge(o *tally) {
	t.add(&o.counts)
	for len(t.perWin) < len(o.perWin) {
		t.perWin = append(t.perWin, 0)
	}
	for i, n := range o.perWin {
		t.perWin[i] += n
	}
	t.jobLat.merge(&o.jobLat)
	for k := range t.readLat {
		t.readLat[k].merge(&o.readLat[k])
	}
	for k := range t.layer {
		t.layer[k].merge(&o.layer[k])
	}
}

// spans is a finished job's service-side timeline, from its trace.
type spans struct {
	submitted, terminal  time.Time
	queue, checkout, run time.Duration
	reused               bool
}

// spansOf reads the submitted → claimed → machine_ready → done
// timeline off a job's final snapshot (the watch stream's terminal
// snapshot carries the whole trace).
func spansOf(j serve.Job) (spans, error) {
	var sub, claim, ready, term time.Time
	detail := ""
	for _, ev := range j.Trace {
		switch ev.Event {
		case serve.TraceSubmitted:
			sub = ev.At
		case serve.TraceClaimed:
			claim = ev.At
		case serve.TraceMachineReady:
			ready, detail = ev.At, ev.Detail
		case string(serve.StatusDone):
			term = ev.At
		}
	}
	if sub.IsZero() || claim.IsZero() || ready.IsZero() || term.IsZero() {
		return spans{}, fmt.Errorf("job %s: incomplete trace %+v", j.ID, j.Trace)
	}
	return spans{
		submitted: sub,
		terminal:  term,
		queue:     claim.Sub(sub),
		checkout:  ready.Sub(claim),
		run:       term.Sub(ready),
		reused:    strings.HasSuffix(detail, " reused"),
	}, nil
}

// newCaller returns a typed client with a transport of its own, so
// each caller holds one connection at a time; closeIdle releases it.
func newCaller(base string) (cl *client.Client, closeIdle func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: tr})), tr.CloseIdleConnections
}

// callers runs two closed-loop callers. Caller c submits specs
// c·len/2, c·len/2+1, … (mod len).
func (l *load) callers(ctx context.Context) []*tally {
	const callers = 2
	tallies := make([]*tally, callers)
	var wg sync.WaitGroup
	for c := range tallies {
		tallies[c] = &tally{start: l.start}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.caller(ctx, c*len(l.specs)/callers, tallies[c])
		}()
	}
	wg.Wait()
	return tallies
}

// writerAndReader runs the durable-rw pair: one batch writer and one
// reader with no think time.
func (l *load) writerAndReader(ctx context.Context) []*tally {
	tallies := []*tally{{start: l.start}, {start: l.start}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		l.writer(ctx, tallies[0])
	}()
	go func() {
		defer wg.Done()
		l.reader(ctx, tallies[1])
	}()
	wg.Wait()
	return tallies
}

// caller loops Submit → Await → Get over the spec set from index
// first.
func (l *load) caller(ctx context.Context, first int, t *tally) {
	cl, closeIdle := newCaller(l.base)
	defer closeIdle()
	for i := first; time.Now().Before(l.deadline); i++ {
		k := i % len(l.specs)
		t0 := time.Now()
		job, err := cl.Submit(ctx, l.specs[k])
		t1 := time.Now()
		if err != nil {
			t.jobFailed(fmt.Errorf("submit: %w", err))
			continue
		}
		if l.traced {
			t.layer[layerSubmit].addDur(t1.Sub(t0), time.Millisecond)
		}
		final, err := cl.Await(ctx, job.ID)
		t.job(l.refs[k], final, err, t0, t1, time.Now(), l.traced)
		t.read(ctx, cl, readGet, job.ID)
	}
}

// writer submits durableBatch specs per SubmitBatch and awaits each
// job in turn; a job's latency runs from its batch's submit.
func (l *load) writer(ctx context.Context, t *tally) {
	cl, closeIdle := newCaller(l.base)
	defer closeIdle()
	batch := make([]serve.JobSpec, durableBatch)
	for i := 0; time.Now().Before(l.deadline); i += durableBatch {
		for b := range batch {
			batch[b] = l.specs[(i+b)%len(l.specs)]
		}
		t0 := time.Now()
		jobs, err := cl.SubmitBatch(ctx, batch)
		t1 := time.Now()
		if err == nil && len(jobs) != len(batch) {
			err = fmt.Errorf("batch of %d admitted %d jobs", len(batch), len(jobs))
		}
		if err != nil {
			for range batch {
				t.jobFailed(fmt.Errorf("submit batch: %w", err))
			}
			continue
		}
		if l.traced {
			t.layer[layerSubmit].addDur(t1.Sub(t0), time.Millisecond)
		}
		l.recent.Store(&jobs[len(jobs)-1].ID)
		for b, job := range jobs {
			start := time.Now()
			final, err := cl.Await(ctx, job.ID)
			t.job(l.refs[(i+b)%len(l.specs)], final, err, t0, start, time.Now(), l.traced)
		}
	}
}

// reader reads back to back, rotating through the read kinds; its Get
// reads the writer's most recent job.
func (l *load) reader(ctx context.Context, t *tally) {
	cl, closeIdle := newCaller(l.base)
	defer closeIdle()
	for n := 0; time.Now().Before(l.deadline); n++ {
		t.read(ctx, cl, n%readKinds, *l.recent.Load())
	}
}

// readOnce issues one read of the given kind — List(limit 50), Get of
// the job id, or Stats — and checks its answer.
func readOnce(ctx context.Context, cl *client.Client, kind int, id string) error {
	switch kind {
	case readList:
		page, err := cl.List(ctx, client.ListOptions{Limit: 50})
		if err == nil && len(page.Jobs) == 0 {
			err = errors.New("list: empty page")
		}
		return err
	case readGet:
		job, err := cl.Get(ctx, id)
		if err == nil && job.ID != id {
			err = fmt.Errorf("get %s: returned job %s", id, job.ID)
		}
		return err
	default:
		st, err := cl.Stats(ctx)
		if err == nil && st.Done == 0 {
			err = errors.New("stats: no done jobs")
		}
		return err
	}
}

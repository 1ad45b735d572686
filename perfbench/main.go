// Command perfbench is starmesh's benchmark. It starts the job
// service in-process (serve.NewService with its defaults, 2 workers)
// on a loopback HTTP listener, drives one workload through the typed
// client for a fixed time, checks every job result against a
// standalone run of its spec, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The end-to-end figures cover the whole timed phase, and setup_s is
// the median of three set-ups. With -trace 0 the metrics are the
// end-to-end ones; with -trace 1 a second, traced phase follows, the
// layer probes run, and the metrics are the per-layer ones. Run it
// through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload tiny-mixed --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"starmesh/internal/serve"
	"starmesh/internal/simd"
	"starmesh/internal/workload"
)

// workers is the service's worker count, fixed so that results do not
// depend on the CPU count of the host.
const workers = 2

// setupRuns is how many times a run sets the service up; setup_s is
// their median, so one disturbed set-up does not move it.
const setupRuns = 3

// settle is the untimed run of the workload's own load between set-up
// and the timed phase.
const settle = time.Second

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// scratch holds the WAL store directories.
	scratch string
	// setups is how many times set-up runs; setup_s is the median.
	setups int
	// fillJobs is how many filler jobs warm-up admits.
	fillJobs int
}

// inputs are everything the seed determines: the timed spec set, the
// warm-up filler and their standalone references.
type inputs struct {
	specs    []serve.JobSpec
	refs     []reference
	fill     []serve.JobSpec
	fillRefs []reference
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rep, err := bench(context.Background(), cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(data))
	if !rep.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: tiny-mixed or durable-rw")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced phase and the layer probes, and reports the per-layer metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for the WAL store")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, err := workloadByName(*name); err != nil {
		return config{}, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return config{}, errors.New("need -seconds ≥ 1 and -trace 0 or 1")
	}
	return config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		scratch:  *scratch,
		setups:   setupRuns,
		fillJobs: retentionBound + retentionBound/16,
	}, nil
}

// benchRun is one benchmark run's fixed parts.
type benchRun struct {
	cfg    config
	w      workloadDef
	svcCfg serve.Config
	opts   []simd.Option
	inp    inputs
	out    io.Writer
}

// bench runs set-up, the timed phase and, when tracing, the traced
// phase and the layer probes, printing tables to out as it goes.
func bench(ctx context.Context, cfg config, out io.Writer) (report, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return report{}, err
	}
	r := benchRun{cfg: cfg, w: w, svcCfg: serve.Config{Workers: workers}, out: out}
	if r.opts, err = r.svcCfg.EngineOptions(); err != nil {
		return report{}, err
	}
	rng := workload.NewRand(cfg.seed)
	r.inp = inputs{specs: w.specs(rng), fill: tinySpecs(rng)}
	if r.inp.refs, err = references(r.inp.specs, r.opts); err != nil {
		return report{}, err
	}
	if r.inp.fillRefs, err = references(r.inp.fill, r.opts); err != nil {
		return report{}, err
	}
	storeFS := "none (in-memory store)"
	if w.durable {
		if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
			return report{}, err
		}
		storeFS = fsType(cfg.scratch)
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%.0f trace=%t\n",
		w.name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(out, "context: host_cpus=%d gomaxprocs=%d go=%s workers=%d store_fs=%s specs=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), workers, storeFS, len(r.inp.specs))

	in, setups, err := r.setUp(ctx)
	if err != nil {
		return report{}, err
	}
	rep, err := r.measure(ctx, in, setups)
	if serr := in.stop(); serr != nil && err == nil {
		err = fmt.Errorf("stopping the service: %w", serr)
	}
	return rep, err
}

// serviceConfig is the service configuration of one instance; tag
// names its WAL store directory on the durable workload.
func (r *benchRun) serviceConfig(tag string) serve.Config {
	c := r.svcCfg
	if r.w.durable {
		c.StoreDir = filepath.Join(r.cfg.scratch, fmt.Sprintf("store-%d-%s", os.Getpid(), tag))
	}
	return c
}

// setUp starts and warms a service cfg.setups times, timing each from
// NewService (WAL open included) to the end of warm-up, and keeps the
// last one running.
func (r *benchRun) setUp(ctx context.Context) (*instance, []float64, error) {
	var setups []float64
	for i := range r.cfg.setups {
		t0 := time.Now()
		in, err := startInstance(r.serviceConfig(fmt.Sprint("setup", i)))
		if err != nil {
			return nil, nil, err
		}
		last, err := in.warmUp(ctx, r.inp, r.cfg.fillJobs, workers)
		setups = append(setups, time.Since(t0).Seconds())
		if err == nil && i == r.cfg.setups-1 {
			in.last = last
			return in, setups, nil
		}
		if serr := in.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, nil, err
		}
	}
	panic("unreachable: cfg.setups ≥ 1")
}

// measure runs the phases on a warmed instance and assembles the
// report.
func (r *benchRun) measure(ctx context.Context, in *instance, setups []float64) (report, error) {
	if p := runPhase(ctx, in, r.w, r.inp, settle, false); p.failed+p.readFailed > 0 {
		return report{}, fmt.Errorf("settling run: %d of %d operations failed: %v", p.failed+p.readFailed, p.jobs+p.reads, p.errs)
	}
	plain := runPhase(ctx, in, r.w, r.inp, r.cfg.seconds, false)
	setupS := median(setups)
	e2e := endToEnd(plain, setupS)
	fmt.Fprintf(r.out, "setup_s runs: %v\n", setups)
	printRows(r.out, "end-to-end", e2e)
	fmt.Fprintf(r.out, "read p99 (not bounded; per read kind in the traced run): %.4f ms (%s)\n",
		plain.read.p99.value, plain.read.p99.note())
	printWindows(r.out, plain)
	printFailures(r.out, "timed", plain)
	rep := report{
		Attempted: plain.jobs + plain.reads,
		Failed:    plain.failed + plain.readFailed,
		Metrics:   metrics(e2e),
	}
	if r.cfg.trace {
		traced := runPhase(ctx, in, r.w, r.inp, r.cfg.seconds, true)
		printFailures(r.out, "traced", traced)
		rep.Attempted += traced.jobs + traced.reads
		rep.Failed += traced.failed + traced.readFailed
		probeCfg := r.serviceConfig("admit")
		layers, err := perLayer(ctx, traced, in, probeCfg, r.opts, r.inp)
		if probeCfg.StoreDir != "" {
			err = errors.Join(err, os.RemoveAll(probeCfg.StoreDir))
		}
		if err != nil {
			return report{}, err
		}
		printRows(r.out, "per-layer (traced phase and layer probes)", layers)
		printResidue(r.out, traced)
		printOverhead(r.out, e2e, endToEnd(traced, setupS))
		rep.Metrics = metrics(layers)
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// phaseResult is one timed phase, summarized to a fixed size, plus
// what the service and the runtime report around it.
type phaseResult struct {
	counts
	// length is the configured phase length; elapsed runs until the
	// last caller returned (a job started before the deadline finishes
	// after it).
	length, elapsed time.Duration
	perWin          []int
	job, read       pcts
	// readP90 is the bounded read tail (see endToEnd).
	readP90  summary
	readKind [readKinds]pcts
	layer    [numLayers]pcts
	// walRecords and snapshots are the WAL counters' growth over the
	// phase (0 on the in-memory store).
	walRecords, snapshots int64
	// poolBuilds and poolReuses are the pool counters' growth.
	poolBuilds, poolReuses int64
	heapMiB                float64
}

// runPhase drives the workload for d and collects the result. The
// heap is measured after a forced GC once every load goroutine has
// returned and the latency samples are summarized and dropped, so it
// holds the service's state and not the benchmark's samples.
func runPhase(ctx context.Context, in *instance, w workloadDef, inp inputs, d time.Duration, traced bool) phaseResult {
	runtime.GC()
	before := in.svc.Stats()
	l := &load{base: in.base, specs: inp.specs, refs: inp.refs, traced: traced}
	l.recent.Store(&in.last)
	p := drivePhase(ctx, l, w, d)
	in.last = *l.recent.Load()
	after := in.svc.Stats()
	p.walRecords = after.Durability.WALRecords - before.Durability.WALRecords
	p.snapshots = after.Durability.Snapshots - before.Durability.Snapshots
	p.poolBuilds, p.poolReuses = poolDelta(before.Pools, after.Pools)
	runtime.GC()
	runtime.GC() // the second cycle drops what sync.Pools kept through the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMiB = float64(ms.HeapAlloc) / (1 << 20)
	return p
}

// drivePhase runs the load for d and summarizes its tallies; the
// samples do not outlive it.
func drivePhase(ctx context.Context, l *load, w workloadDef, d time.Duration) phaseResult {
	l.start = time.Now()
	l.deadline = l.start.Add(d)
	tallies := w.drive(ctx, l)
	p := phaseResult{length: d, elapsed: time.Since(l.start)}
	var all tally
	for _, t := range tallies {
		all.merge(t)
	}
	var reads dist
	for k := range all.readLat {
		p.readKind[k] = all.readLat[k].pcts()
		reads.merge(&all.readLat[k])
	}
	for k := range all.layer {
		p.layer[k] = all.layer[k].pcts()
	}
	p.counts, p.perWin = all.counts, all.perWin
	p.job, p.read = all.jobLat.pcts(), reads.pcts()
	p.readP90 = reads.percentile(90)
	return p
}

func poolDelta(before, after []serve.PoolStats) (builds, reuses int64) {
	for _, p := range after {
		builds += p.Builds
		reuses += p.Reuses
	}
	for _, p := range before {
		builds -= p.Builds
		reuses -= p.Reuses
	}
	return builds, reuses
}

package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"starmesh/internal/serve"
	"starmesh/internal/simd"
	"starmesh/internal/workload"
)

// row is one reported metric; rows are both printed and put in the
// JSON result, so the two cannot disagree.
type row struct {
	name  string
	value float64
	unit  string
	note  string
}

func metrics(rows []row) map[string]metric {
	m := make(map[string]metric, len(rows))
	for _, r := range rows {
		m[r.name] = metric{Value: r.value, Unit: r.unit}
	}
	return m
}

// pctRows reports a p50 and p99 with their sample accounting.
func pctRows(name, unit string, p pcts) []row {
	return []row{
		{name + ".p50", p.p50.value, unit, p.p50.note()},
		{name + ".p99", p.p99.value, unit, p.p99.note()},
	}
}

// medRow reports a probe's median.
func medRow(name, unit string, d *dist) row {
	s := d.percentile(50)
	return row{name: name, value: s.value, unit: unit, note: fmt.Sprintf("median of %d", s.n)}
}

// endToEnd is what a user of the service sees over the whole phase.
// The read tail is bounded at p90, not p99: on tiny-mixed a read is
// one ~0.1 ms Get, whose p99 is mostly scheduler and GC stalls. On a
// 2-vCPU host the p99's quartile spread over ten runs of the same code
// reached 0.28 of its median, past the 0.25 bound; the p90 stays
// closer to the median. The read p99 is printed beside the table and
// reported per read kind by the traced run (store.*_ms.p99).
func endToEnd(p phaseResult, setupS float64) []row {
	secs := p.elapsed.Seconds()
	over := fmt.Sprintf(" in %.3f s", secs)
	return []row{
		{"jobs_per_s", float64(p.done) / secs, "1/s", fmt.Sprintf("%d jobs", p.done) + over},
		{"job_p50_ms", p.job.p50.value, "ms", p.job.p50.note()},
		{"job_p99_ms", p.job.p99.value, "ms", p.job.p99.note()},
		{"routes_per_s", float64(p.routes) / secs, "1/s", fmt.Sprintf("%d star unit routes", p.routes) + over},
		{"reads_per_s", float64(p.reads-p.readFailed) / secs, "1/s", fmt.Sprintf("%d reads", p.reads-p.readFailed) + over},
		{"read_p50_ms", p.read.p50.value, "ms", p.read.p50.note()},
		{"read_p90_ms", p.readP90.value, "ms", p.readP90.note()},
		{"setup_s", setupS, "s", "median of the set-up runs"},
		{"live_heap_mb", p.heapMiB, "MiB", "heap in use after a forced GC"},
	}
}

// probeSpecs are the layer probes' specs: multi-trial sweeps on S_8,
// whose working set exceeds L2, and on S_7 and S_6, whose working sets
// fit. They are probed on every workload so that every traced run
// reports the same layer metrics.
var probeSpecs = []serve.JobSpec{
	{Kind: workload.KindSweep, N: 8, Trials: 4},
	{Kind: workload.KindSweep, N: 7, Trials: 32},
	{Kind: workload.KindSweep, N: 6, Trials: 128},
}

// Probe sizes.
const (
	admitJobs   = 640
	storeReads  = 200
	probeBuilds = 3
	probeRuns   = 10
	replayReps  = 50
)

// perLayer assembles the per-layer table from a traced phase and the
// layer probes.
func perLayer(ctx context.Context, p phaseResult, in *instance, probeCfg serve.Config, opts []simd.Option, inp inputs) ([]row, error) {
	var rows []row
	for k, name := range layerNames {
		rows = append(rows, pctRows(name, "ms", p.layer[k])...)
	}
	admit, err := admitProbe(probeCfg, inp.specs, inp.refs, admitJobs)
	if err != nil {
		return nil, err
	}
	rows = append(rows, pctRows("serve.admit_us", "us", admit.pcts())...)
	rows = append(rows, row{"pool.reuse_frac", frac(p.reused, p.built+p.reused), "fraction",
		fmt.Sprintf("%d reused, %d built (pool counters: %d reused, %d built)", p.reused, p.built, p.poolReuses, p.poolBuilds)})
	// The load's reads ran beside the traced phase's jobs, so they
	// include waiting on the store lock behind appends, snapshots and
	// eviction. A read kind the load does not make is probed on the
	// idle service instead.
	for k, name := range readNames {
		reads, note := p.readKind[k], ""
		if reads.p50.n == 0 {
			d, err := readProbe(ctx, in, k, storeReads)
			if err != nil {
				return nil, err
			}
			reads, note = d.pcts(), "idle probe; "
		}
		for _, r := range pctRows("store."+name+"_ms", "ms", reads) {
			r.note = note + r.note
			rows = append(rows, r)
		}
	}
	rows = append(rows,
		row{"wal.records_per_job", frac(int(p.walRecords), p.done), "count", fmt.Sprintf("%d records", p.walRecords)},
		row{"wal.snapshots_per_1k_jobs", 1000 * frac(int(p.snapshots), p.done), "count", fmt.Sprintf("%d snapshots", p.snapshots)})

	refs, err := references(probeSpecs, opts)
	if err != nil {
		return nil, err
	}
	for i, spec := range probeSpecs {
		build, reset, run, err := registryProbe(spec, refs[i], opts, probeBuilds, probeRuns)
		if err != nil {
			return nil, err
		}
		shape := shapeName(spec.Shape())
		rows = append(rows,
			medRow("workload.build_ms."+shape, "ms", &build),
			medRow("workload.reset_us."+shape, "us", &reset),
			medRow("workload.run_ms."+spec.Name(), "ms", &run))
	}
	for _, spec := range probeSpecs {
		ns, bytes := replayProbe(spec.N, opts, replayReps)
		shape := shapeName(spec.Shape())
		rows = append(rows,
			row{"simd.replay_ns_per_route." + shape, ns, "ns", fmt.Sprintf("median of %d sweeps", replayReps)},
			row{"simd.bytes_per_route_computed." + shape, bytes, "bytes", "computed from messages sent, not measured"})
	}
	return rows, nil
}

// frac is a/b, 0 when b is 0.
func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func printRows(out io.Writer, title string, rows []row) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, r := range rows {
		fmt.Fprintf(out, "  %-40s %14.4f %-8s %s\n", r.name, r.value, r.unit, r.note)
	}
}

// printWindows prints the phase's job rate per window, so a stretch
// slowed from outside shows.
func printWindows(out io.Writer, p phaseResult) {
	fmt.Fprintf(out, "jobs_per_s by %s window:", window)
	for _, n := range p.perWin[:min(int(p.length/window), len(p.perWin))] {
		fmt.Fprintf(out, " %.0f", float64(n)/window.Seconds())
	}
	fmt.Fprintln(out)
}

// printFailures reports the phase's failure share and its first
// errors. Every failure also counts in the result's "failed".
func printFailures(out io.Writer, phase string, p phaseResult) {
	attempted, failed := p.jobs+p.reads, p.failed+p.readFailed
	fmt.Fprintf(out, "failed_frac (%s phase): %.6f (%d of %d operations)\n", phase, frac(failed, attempted), failed, attempted)
	for _, e := range p.errs {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
}

// printResidue checks the blocking layers of a job against its
// end-to-end latency, each at its p50, against job_p50_ms. The Submit
// call overlaps the service-side spans: the job is queued (and may
// run) while the response is still on its way back. The second sum
// replaces the call with its leg up to admission (the trace's
// submitted event), which partitions each job's latency exactly, so
// its residue only reflects that medians do not add.
func printResidue(out io.Writer, p phaseResult) {
	service := []int{layerQueueWait, layerCheckout, layerRun, layerPublishLag}
	job := p.job.p50.value
	for _, first := range []int{layerSubmit, layerSubmitLeg} {
		parts := append([]int{first}, service...)
		sum := 0.0
		terms := make([]string, len(parts))
		for i, k := range parts {
			v := p.layer[k].p50.value
			sum += v
			terms[i] = fmt.Sprintf("%s %.4f", strings.TrimSuffix(layerNames[k], "_ms"), v)
		}
		fmt.Fprintf(out, "layer sum at p50: %s = %.4f ms; job_p50_ms %.4f; residue %+.4f ms (%+.1f%%)\n",
			strings.Join(terms, " + "), sum, job, job-sum, 100*(job-sum)/job)
	}
}

// printOverhead prints traced minus untraced for each end-to-end
// metric of the timed phase (set-up is not traced).
func printOverhead(out io.Writer, plain, traced []row) {
	fmt.Fprintln(out, "tracing overhead (traced - untraced):")
	for i, r := range plain {
		if r.name == "setup_s" {
			continue
		}
		d := traced[i].value - r.value
		fmt.Fprintf(out, "  %-40s %+14.4f %-8s (%+.1f%%)\n", r.name, d, r.unit, 100*d/r.value)
	}
}

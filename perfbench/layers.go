package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"starmesh/internal/serve"
	"starmesh/internal/simd"
	"starmesh/internal/starsim"
	"starmesh/internal/workload"
)

// The layer probes of a traced run. Each one times calls into a
// layer's public functions from here, outside the program; spans
// inside the program are not part of this benchmark.

// admitProbe times in-process Service.Submit on a fresh service of
// the same configuration: admission without HTTP or JSON. Jobs are
// submitted in bursts that fit the queue and awaited in-process
// between bursts. Durations are in µs.
func admitProbe(cfg serve.Config, specs []serve.JobSpec, refs []reference, jobs int) (dist, error) {
	var d dist
	svc, err := serve.NewService(cfg)
	if err != nil {
		return d, fmt.Errorf("admission probe: %w", err)
	}
	defer svc.Drain()
	const burst = 32
	for i := 0; i < jobs; {
		var ids []string
		var ks []int
		for b := 0; b < burst && i < jobs; b, i = b+1, i+1 {
			k := i % len(specs)
			t0 := time.Now()
			job, err := svc.Submit(specs[k])
			d.addDur(time.Since(t0), time.Microsecond)
			if err != nil {
				return d, fmt.Errorf("admission probe submit: %w", err)
			}
			ids, ks = append(ids, job.ID), append(ks, k)
		}
		for b, id := range ids {
			final, ch, stop, err := svc.Watch(id)
			if err != nil {
				return d, fmt.Errorf("admission probe watch: %w", err)
			}
			if ch != nil { // nil: already terminal
				for j := range ch {
					final = j
				}
			}
			stop()
			if !final.Status.Terminal() { // the stream may drop a snapshot; re-read
				final, _ = svc.Job(id)
			}
			if err := refs[ks[b]].check(final); err != nil {
				return d, fmt.Errorf("admission probe: %w", err)
			}
		}
	}
	return d, nil
}

// readProbe times n reads of one kind against the warmed service once
// the load has stopped: the store's own cost at its steady-state
// size, for a read kind the workload does not make. Durations are in
// ms.
func readProbe(ctx context.Context, in *instance, kind, n int) (dist, error) {
	var d dist
	cl, closeIdle := newCaller(in.base)
	defer closeIdle()
	for range n {
		t0 := time.Now()
		if err := readOnce(ctx, cl, kind, in.last); err != nil {
			return d, fmt.Errorf("%s probe: %w", readNames[kind], err)
		}
		d.addDur(time.Since(t0), time.Millisecond)
	}
	return d, nil
}

// registryProbe times the scenario registry's hooks on one spec:
// Family.Build of a fresh resource, Resource.Reset, and Family.Run
// on a reset resource, checking every run against the reference.
// Build is in ms, Reset in µs, Run in ms.
func registryProbe(spec serve.JobSpec, ref reference, opts []simd.Option, builds, runs int) (build, reset, run dist, err error) {
	norm, err := spec.Normalized()
	if err != nil {
		return build, reset, run, err
	}
	fam, err := workload.FamilyOf(norm.Kind)
	if err != nil {
		return build, reset, run, err
	}
	var r workload.Resource
	for range builds {
		if r != nil {
			r.Close()
		}
		t0 := time.Now()
		r = fam.Build(norm, opts...)
		build.addDur(time.Since(t0), time.Millisecond)
	}
	defer r.Close()
	for i := 0; i <= runs; i++ {
		t0 := time.Now()
		r.Reset()
		dr := time.Since(t0)
		t1 := time.Now()
		res, err := fam.Run(context.Background(), norm, r)
		dt := time.Since(t1)
		if err != nil {
			return build, reset, run, fmt.Errorf("registry probe %s: %w", norm.Name(), err)
		}
		if got := (reference{unitRoutes: res.UnitRoutes, conflicts: res.Conflicts, ok: res.OK}); got != ref {
			return build, reset, run, fmt.Errorf("registry probe %s: got %+v, want %+v", norm.Name(), got, ref)
		}
		if i == 0 {
			continue // the first run binds the machine's plans
		}
		reset.addDur(dr, time.Microsecond)
		run.addDur(dt, time.Millisecond)
	}
	return build, reset, run, nil
}

// replayBytesPerMessage is what plan replay moves per delivered
// message: the int32 destination and source indices of the delivery
// table, the int64 source register word read and the int64
// destination word written.
const replayBytesPerMessage = 4 + 4 + 8 + 8

// replayProbe times full mesh-unit-route sweeps (every dimension,
// both directions) on a warmed star machine of S_n and returns the
// median ns per star unit route, plus the bytes one route moves,
// computed from the machine's message count and
// replayBytesPerMessage (not measured).
func replayProbe(n int, opts []simd.Option, reps int) (nsPerRoute, bytesPerRoute float64) {
	m := starsim.New(n, opts...)
	defer m.Close()
	m.EnsureReg("V")
	m.EnsureReg("W")
	m.Set("V", func(pe int) int64 { return int64(pe) })
	sweep := func() int {
		routes := 0
		for k := 1; k <= n-1; k++ {
			for _, dir := range []int{+1, -1} {
				r, _ := m.MeshUnitRoute("V", "W", k, dir)
				routes += r
			}
		}
		return routes
	}
	sweep() // record or bind the plans, build the route tables
	per := make([]float64, reps)
	before := m.Stats()
	routes := 0
	for i := range per {
		t0 := time.Now()
		r := sweep()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(r)
		routes += r
	}
	sent := m.Stats().Sent - before.Sent
	return median(per), float64(sent) / float64(routes) * replayBytesPerMessage
}

// shapeName renders a pool shape as a metric-name suffix ("star:8" →
// "star-8").
func shapeName(shape string) string { return strings.ReplaceAll(shape, ":", "-") }

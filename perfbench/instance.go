package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"

	"starmesh/client"
	"starmesh/internal/serve"
)

// retentionBound mirrors the job store's retention window
// (maxRetainedJobs in internal/serve): past it the store evicts the
// oldest terminal jobs, so warm-up admits more jobs than this to put
// eviction and snapshot size at steady state.
const retentionBound = 4096

// fillBatch is the SubmitBatch size of the warm-up fill; two fillers
// together stay within the service's default 64-deep queue.
const fillBatch = 32

// instance is one service on a loopback HTTP listener.
type instance struct {
	svc    *serve.Service
	srv    *http.Server
	served chan error
	base   string
	dir    string
	// last is the id of the most recent job the benchmark ran, the
	// reader's first Get target.
	last string
}

// startInstance starts the service and its listener. dir is the WAL
// store directory ("" = in-memory store); stop removes it.
func startInstance(cfg serve.Config) (*instance, error) {
	svc, err := serve.NewService(cfg)
	if err != nil {
		return nil, fmt.Errorf("new service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain()
		return nil, fmt.Errorf("listen: %w", err)
	}
	in := &instance{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		dir:    cfg.StoreDir,
	}
	go func() { in.served <- in.srv.Serve(ln) }()
	return in, nil
}

// stop shuts the listener down, drains the service and removes the
// store directory, returning once the serving goroutine has exited.
func (in *instance) stop() error {
	err := in.srv.Shutdown(context.Background())
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	in.svc.Drain()
	if in.dir != "" {
		err = errors.Join(err, os.RemoveAll(in.dir))
	}
	return err
}

// warmUp brings the instance to steady state: it admits fillJobs
// filler jobs (past the store's retention bound), then runs the
// timed specs until every shape they use has a pooled machine per
// worker. Every warm-up result is checked against its reference; no
// warm-up job enters a timed metric. It returns the id of the last
// job it ran.
func (in *instance) warmUp(ctx context.Context, inp inputs, fillJobs, workers int) (string, error) {
	const fillers = 2
	var (
		wg   sync.WaitGroup
		errs [fillers]error
		last [fillers]string
	)
	for f := range fillers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, closeIdle := newCaller(in.base)
			defer closeIdle()
			for done := f * fillBatch; done < fillJobs; done += fillers * fillBatch {
				idx := make([]int, min(fillBatch, fillJobs-done))
				for i := range idx {
					idx[i] = (done + i) % len(inp.fill)
				}
				id, err := runBatch(ctx, cl, inp.fill, inp.fillRefs, idx)
				if err != nil {
					errs[f] = fmt.Errorf("warm-up fill: %w", err)
					return
				}
				last[f] = id
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return "", err
	}
	// Prime the pools: each spec several times back to back, so the
	// workers run copies concurrently and every shape gets a machine
	// per worker.
	cl, closeIdle := newCaller(in.base)
	defer closeIdle()
	lastID := last[0]
	const copies, rounds = 4, 10
	for round := 0; round < rounds && !in.primed(inp.specs, workers); round++ {
		var idx []int
		for k := range inp.specs {
			for range copies {
				idx = append(idx, k)
			}
		}
		for len(idx) > 0 {
			n := min(len(idx), fillBatch)
			id, err := runBatch(ctx, cl, inp.specs, inp.refs, idx[:n])
			if err != nil {
				return "", fmt.Errorf("warm-up prime: %w", err)
			}
			lastID, idx = id, idx[n:]
		}
	}
	return lastID, nil
}

// primed reports whether every shape of the specs has at least one
// pooled machine per worker.
func (in *instance) primed(specs []serve.JobSpec, workers int) bool {
	builds := map[string]int64{}
	for _, p := range in.svc.Stats().Pools {
		builds[p.Shape] = p.Builds
	}
	for _, s := range specs {
		if builds[s.Shape()] < int64(workers) {
			return false
		}
	}
	return true
}

// runBatch submits specs[idx...] as one batch, awaits every job and
// checks each against its reference, returning the last job's id.
func runBatch(ctx context.Context, cl *client.Client, specs []serve.JobSpec, refs []reference, idx []int) (string, error) {
	batch := make([]serve.JobSpec, len(idx))
	for i, k := range idx {
		batch[i] = specs[k]
	}
	jobs, err := cl.SubmitBatch(ctx, batch)
	if err != nil {
		return "", err
	}
	for i, job := range jobs {
		final, err := cl.Await(ctx, job.ID)
		if err != nil {
			return "", err
		}
		if err := refs[idx[i]].check(final); err != nil {
			return "", err
		}
	}
	return jobs[len(jobs)-1].ID, nil
}

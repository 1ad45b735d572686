package main

import (
	"context"
	"fmt"

	"starmesh/internal/serve"
	"starmesh/internal/simd"
	"starmesh/internal/workload"
)

// reference is the outcome a job of one spec must reproduce: the
// unit routes, conflicts and self-check of a standalone run.
type reference struct {
	unitRoutes int
	conflicts  int
	ok         bool
}

// references runs every spec standalone (workload.ScenarioFor: a
// fresh machine per run, no pool, no service) with the service's
// engine options. It also records every plan the timed load will
// replay, which is why it runs before any set-up is timed.
func references(specs []serve.JobSpec, opts []simd.Option) ([]reference, error) {
	refs := make([]reference, len(specs))
	for i, spec := range specs {
		sc, err := workload.ScenarioFor(spec, opts...)
		if err != nil {
			return nil, fmt.Errorf("reference spec %d (%s): %w", i, spec.Kind, err)
		}
		res, err := sc.Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("reference run %s: %w", sc.Name, err)
		}
		if !res.OK {
			return nil, fmt.Errorf("reference run %s failed its self-check", sc.Name)
		}
		refs[i] = reference{unitRoutes: res.UnitRoutes, conflicts: res.Conflicts, ok: res.OK}
	}
	return refs, nil
}

// check compares a job's final snapshot with the reference; nil
// means the service reproduced the standalone run exactly.
func (r reference) check(j serve.Job) error {
	if j.Status != serve.StatusDone || j.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", j.ID, j.Status, j.Error)
	}
	got := reference{unitRoutes: j.Result.UnitRoutes, conflicts: j.Result.Conflicts, ok: j.Result.OK}
	if got != r {
		return fmt.Errorf("job %s (%s) diverged from its standalone run: got %+v, want %+v",
			j.ID, j.Spec.Name(), got, r)
	}
	return nil
}

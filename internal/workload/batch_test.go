package workload

import (
	"context"
	"errors"
	"testing"

	"starmesh/internal/mesh"
	"starmesh/internal/meshsim"
	"starmesh/internal/star"
	"starmesh/internal/starsim"
)

// scenario builds a spec's standalone scenario or fails the test.
func scenario(t *testing.T, s Spec) Scenario {
	t.Helper()
	sc, err := ScenarioFor(s)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// stripTiming zeroes the wall-clock fields so runs can be compared.
func stripTiming(b BatchResult) BatchResult {
	b.ElapsedNs = 0
	b.Workers = 0
	out := append([]ScenarioResult(nil), b.Scenarios...)
	for i := range out {
		out[i].ElapsedNs = 0
	}
	b.Scenarios = out
	return b
}

func TestStandardBatchRunsCleanAndDeterministic(t *testing.T) {
	batch := StandardBatch(4, 7)
	one := RunBatch(context.Background(), batch, 1)
	if len(one.Errors) != 0 {
		t.Fatalf("batch errors: %v", one.Errors)
	}
	for _, sc := range one.Scenarios {
		if !sc.OK {
			t.Errorf("scenario %s not ok: %+v", sc.Name, sc)
		}
		if sc.UnitRoutes <= 0 {
			t.Errorf("scenario %s reports no work: %+v", sc.Name, sc)
		}
	}
	for _, workers := range []int{2, 5, 0} {
		many := RunBatch(context.Background(), StandardBatch(4, 7), workers)
		if len(many.Errors) != 0 {
			t.Fatalf("workers=%d batch errors: %v", workers, many.Errors)
		}
		a, b := stripTiming(one), stripTiming(many)
		if len(a.Scenarios) != len(b.Scenarios) {
			t.Fatalf("workers=%d: scenario count diverged", workers)
		}
		for i := range a.Scenarios {
			if a.Scenarios[i] != b.Scenarios[i] {
				t.Errorf("workers=%d scenario %d: %+v != %+v",
					workers, i, b.Scenarios[i], a.Scenarios[i])
			}
		}
	}
}

func TestRunBatchCollectsErrors(t *testing.T) {
	boom := Scenario{Name: "boom", Run: func(context.Context) (ScenarioResult, error) {
		return ScenarioResult{}, errors.New("deliberate failure")
	}}
	res := RunBatch(context.Background(), []Scenario{scenario(t, Spec{Kind: KindBroadcast, N: 3, Source: 0}), boom}, 2)
	if len(res.Errors) != 1 {
		t.Fatalf("errors = %v, want exactly one", res.Errors)
	}
	if res.Scenarios[0].Name != "broadcast-star-n3-src0" || !res.Scenarios[0].OK {
		t.Errorf("healthy scenario result corrupted: %+v", res.Scenarios[0])
	}
}

// TestRunnersMatchScenarios pins the refactoring contract: a Run*On
// call on a fresh machine with an explicit rand stream produces
// exactly what the corresponding Scenario (seed-keyed) produces —
// the property the job service's pooled execution relies on.
func TestRunnersMatchScenarios(t *testing.T) {
	const n, seed = 4, 99
	run := func(sc Scenario) ScenarioResult {
		res, err := sc.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		return res
	}

	sm := starsim.New(n)
	defer sm.Close()
	got, err := RunSortOn(context.Background(), sm, Uniform, NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	if want := run(scenario(t, Spec{Kind: KindSort, N: n, Dist: "uniform", Seed: seed})); got != want {
		t.Fatalf("RunSortOn diverged: %+v != %+v", got, want)
	}

	mm := meshsim.New(mesh.New(8, 8))
	defer mm.Close()
	got, err = RunShearOn(context.Background(), mm, Reversed, NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	if want := run(scenario(t, Spec{Kind: KindShear, Rows: 8, Cols: 8, Dist: "reversed", Seed: seed})); got != want {
		t.Fatalf("RunShearOn diverged: %+v != %+v", got, want)
	}

	g := star.New(n)
	got, err = RunFaultRouteOn(context.Background(), g, n-2, 8, NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	if want := run(scenario(t, Spec{Kind: KindFaultRoute, N: n, Faults: n - 2, Pairs: 8, Seed: seed})); got != want {
		t.Fatalf("RunFaultRouteOn diverged: %+v != %+v", got, want)
	}

	sweep := run(scenario(t, Spec{Kind: KindSweep, N: n}))
	if !sweep.OK || sweep.UnitRoutes == 0 {
		t.Fatalf("sweep scenario reported no clean work: %+v", sweep)
	}
}

package workload

import (
	"context"
	"testing"

	"starmesh/internal/mesh"
	"starmesh/internal/meshsim"
	"starmesh/internal/star"
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

// TestRunnersMatchScenarios pins the refactoring contract: a runner
// call on a fresh resource with an explicit rand stream produces
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

	sortSpec := Spec{Kind: KindSort, N: n, Dist: "uniform", Seed: seed}
	sm := buildStar(sortSpec).(*starMachine)
	defer sm.Close()
	got, err := runSort(context.Background(), sm.Machine, sm.sort(), Uniform, NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	if want := run(scenario(t, sortSpec)); got != want {
		t.Fatalf("runSort diverged: %+v != %+v", got, want)
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

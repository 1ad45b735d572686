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

// TestRunnersHonorCancellation: every long-loop runner aborts on a
// pre-canceled context with ctx's error and OK=false, and the
// machine remains usable (Reset + rerun matches a fresh run) — the
// Reset-safety the service pools rely on after a mid-run cancel.
func TestRunnersHonorCancellation(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := context.Background()

	// The star kinds run through their family's Run on one star
	// resource, the path the service's pools take.
	sm := buildStar(Spec{N: 4}).(*starMachine)
	defer sm.Close()
	family := func(s Spec) func(c context.Context) (ScenarioResult, error) {
		norm, err := s.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		f, _ := Builtin.Lookup(norm.Kind)
		return func(c context.Context) (ScenarioResult, error) { return f.Run(c, norm, sm) }
	}
	mm := meshsim.New(mesh.New(4, 4))
	defer mm.Close()
	vm := buildVirtual(Spec{N: 3}).(*virtualMachine)
	defer vm.Close()
	g := star.New(4)

	runs := []struct {
		name string
		run  func(c context.Context) (ScenarioResult, error)
	}{
		{"sort", family(Spec{Kind: KindSort, N: 4, Seed: 1})},
		{"sweep", func(c context.Context) (ScenarioResult, error) { return RunSweepOn(c, sm.Machine, 3) }},
		{"broadcast", func(c context.Context) (ScenarioResult, error) { return RunBroadcastOn(c, sm.Machine, 0) }},
		{"embedrect", family(Spec{Kind: KindEmbedRect, N: 4, D: 2})},
		{"pipeline", family(Spec{Kind: KindPipeline, N: 4, D: 2, Seed: 1})},
		{"shear", func(c context.Context) (ScenarioResult, error) { return RunShearOn(c, mm, Uniform, NewRand(1)) }},
		{"virtual", func(c context.Context) (ScenarioResult, error) {
			return RunVirtualOn(c, vm.Machine, vm.sorter, Uniform, NewRand(1))
		}},
		{"faultroute", func(c context.Context) (ScenarioResult, error) {
			return RunFaultRouteOn(c, g, 1, 4, NewRand(1))
		}},
		{"diagnostics", func(c context.Context) (ScenarioResult, error) {
			return RunDiagnosticsOn(c, g, 1, 4, NewRand(1))
		}},
		{"permroute", func(c context.Context) (ScenarioResult, error) { return RunPermRouteOn(c, 4, "random", 1) }},
	}
	for _, tc := range runs {
		res, err := tc.run(canceled)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-canceled ctx returned %v, want context.Canceled", tc.name, err)
			continue
		}
		if res.OK {
			t.Errorf("%s: canceled run claims OK: %+v", tc.name, res)
		}
	}

	// Reset clears whatever the aborted runs left behind: the machine
	// must reproduce the fresh-machine result after Reset.
	sm.Reset()
	reversed := Spec{Kind: KindSort, N: 4, Dist: "reversed", Seed: 9}
	got, err := family(reversed)(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario(t, reversed).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-cancel Reset machine diverged: %+v != %+v", got, want)
	}
}

// TestSweepTrialsScaleTheWork pins the new long-running sweep knob:
// trials multiply the unit routes linearly and deterministically.
func TestSweepTrialsScaleTheWork(t *testing.T) {
	ctx := context.Background()
	sm := starsim.New(4)
	defer sm.Close()
	one, err := RunSweepOn(ctx, sm, 1)
	if err != nil {
		t.Fatal(err)
	}
	sm.Reset()
	three, err := RunSweepOn(ctx, sm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !one.OK || !three.OK {
		t.Fatalf("sweeps not clean: %+v %+v", one, three)
	}
	if three.UnitRoutes != 3*one.UnitRoutes || one.UnitRoutes == 0 {
		t.Fatalf("trials=3 routed %d, want 3×%d", three.UnitRoutes, one.UnitRoutes)
	}
	// Normalization: trials defaults to 1 and bounds are enforced.
	norm, err := (Spec{Kind: KindSweep, N: 4}).Normalized()
	if err != nil || norm.Trials != 1 {
		t.Fatalf("sweep trials default: %+v, %v", norm, err)
	}
	if _, err := (Spec{Kind: KindSweep, N: 4, Trials: MaxSweepTrials + 1}).Normalized(); err == nil {
		t.Fatal("oversized trials accepted")
	}
}

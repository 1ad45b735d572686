package serve

import (
	"context"
	"errors"
	"testing"

	"starmesh/internal/simd"
	"starmesh/internal/workload"
)

// buildOf and runOf dispatch a spec through the registry the way the
// service does.
func buildOf(t *testing.T, spec JobSpec) func() workload.Resource {
	t.Helper()
	fam, err := workload.FamilyOf(spec.Kind)
	if err != nil {
		t.Fatal(err)
	}
	return func() workload.Resource { return fam.Build(spec) }
}

func runOf(t *testing.T, spec JobSpec, r workload.Resource) (ScenarioResult, error) {
	t.Helper()
	fam, err := workload.FamilyOf(spec.Kind)
	if err != nil {
		t.Fatal(err)
	}
	return fam.Run(context.Background(), spec, r)
}

// fakeResource records lifecycle calls.
type fakeResource struct {
	resets int
	closes int
}

func (f *fakeResource) Reset() { f.resets++ }
func (f *fakeResource) Close() { f.closes++ }

func TestPoolReusesAndResetsMachines(t *testing.T) {
	spec := JobSpec{Kind: KindSort, N: 4, Dist: "uniform", Seed: 3}
	p := &pool{shape: spec.Shape(), build: buildOf(t, spec), pooled: true}

	r1, built, err := p.checkout()
	if err != nil {
		t.Fatal(err)
	}
	if !built {
		t.Fatal("first checkout of an empty pool did not report built")
	}
	first, err := runOf(t, spec, r1)
	if err != nil {
		t.Fatal(err)
	}
	// The star resource embeds its *starsim.Machine, so the machine's
	// stats and registers are reachable through it.
	sm := r1.(interface {
		Stats() simd.Stats
		Reg(name string) []int64
	})
	if sm.Stats().UnitRoutes == 0 {
		t.Fatal("job left no stats on the machine")
	}
	p.checkin(r1)

	r2, built, err := p.checkout()
	if err != nil {
		t.Fatal(err)
	}
	if built {
		t.Fatal("checkout with an idle machine reported built instead of reuse")
	}
	if r2 != r1 {
		t.Fatal("pool built a new machine instead of reusing the idle one")
	}
	// The reset contract: registers and stats really are cleared
	// between jobs.
	if got := sm.Stats(); got.UnitRoutes != 0 || got.Sent != 0 || got.ReceiveConflicts != 0 {
		t.Fatalf("stats survived checkin reset: %+v", got)
	}
	for pe, v := range sm.Reg("K") {
		if v != 0 {
			t.Fatalf("register K[%d] = %d after checkin reset", pe, v)
		}
	}
	// And a rerun on the reused machine is bit-identical.
	again, err := runOf(t, spec, r2)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("reused machine diverged: %+v != %+v", again, first)
	}
	p.checkin(r2)

	st := p.stats()
	if st.Builds != 1 || st.Reuses != 1 || st.Idle != 1 || st.InUse != 0 {
		t.Fatalf("pool counters wrong: %+v", st)
	}
}

func TestUnpooledCheckinCloses(t *testing.T) {
	f := &fakeResource{}
	p := &pool{shape: "fake", build: func() workload.Resource { return f }, pooled: false}
	r, _, err := p.checkout()
	if err != nil {
		t.Fatal(err)
	}
	p.checkin(r)
	if f.closes != 1 {
		t.Fatalf("unpooled checkin closed %d times, want 1", f.closes)
	}
	if f.resets != 0 {
		t.Fatalf("unpooled checkin reset a machine about to be closed")
	}
	if st := p.stats(); st.Builds != 1 || st.Reuses != 0 || st.Idle != 0 {
		t.Fatalf("unpooled counters wrong: %+v", st)
	}
}

func TestPoolDoubleCloseIsIdempotent(t *testing.T) {
	f := &fakeResource{}
	p := &pool{shape: "fake", build: func() workload.Resource { return f }, pooled: true}
	r, _, _ := p.checkout()
	p.checkin(r)
	p.close()
	p.close()
	if f.closes != 1 {
		t.Fatalf("idle machine closed %d times across double close, want 1", f.closes)
	}

	ps := newPoolSet(true)
	if _, err := ps.forShape("fake", func() workload.Resource { return &fakeResource{} }); err != nil {
		t.Fatal(err)
	}
	ps.closeAll()
	ps.closeAll() // must not panic or double-close
}

func TestCheckoutAfterDrainFails(t *testing.T) {
	ps := newPoolSet(true)
	p, err := ps.forShape("fake", func() workload.Resource { return &fakeResource{} })
	if err != nil {
		t.Fatal(err)
	}
	out, _, _ := p.checkout()
	ps.closeAll()
	if _, _, err := p.checkout(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("checkout after drain returned %v, want ErrPoolClosed", err)
	}
	if _, err := ps.forShape("other", func() workload.Resource { return &fakeResource{} }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("forShape after drain returned %v, want ErrPoolClosed", err)
	}
	// A machine still out at drain time is closed on checkin, not
	// parked.
	p.checkin(out)
	if f := out.(*fakeResource); f.closes != 1 {
		t.Fatalf("outstanding machine closed %d times after drain checkin, want 1", f.closes)
	}
}

func TestGraphResourceIsStateless(t *testing.T) {
	spec := JobSpec{Kind: KindFaultRoute, N: 4, Faults: 2, Pairs: 4, Seed: 9}
	p := &pool{shape: spec.Shape(), build: buildOf(t, spec), pooled: true}
	r, _, err := p.checkout()
	if err != nil {
		t.Fatal(err)
	}
	first, err := runOf(t, spec, r)
	if err != nil {
		t.Fatal(err)
	}
	p.checkin(r)
	r2, _, _ := p.checkout()
	again, err := runOf(t, spec, r2)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("fault-route rerun diverged on pooled graph: %+v != %+v", first, again)
	}
}

package simd

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// routeProgram is a pure, route-only schedule (recordable): masked
// SIMD-A routes, per-PE SIMD-B routes, a deliberate conflict and an
// aliased (src == dst) route.
func routeProgram(m *Machine) []int {
	safe := func(pe, p int) int {
		if m.Topology().Neighbor(pe, p) < 0 {
			return -1
		}
		return p
	}
	var returns []int
	returns = append(returns, m.RouteA("A", "B", 0, nil))
	returns = append(returns, m.RouteA("B", "A", 1, func(pe int) bool { return pe%2 == 0 }))
	returns = append(returns, m.RouteB("A", "B", func(pe int) int {
		if pe%3 == 0 {
			return -1
		}
		return safe(pe, pe%2)
	}))
	// Deliberate conflicts: odd PEs counter-clockwise, even clockwise.
	returns = append(returns, m.RouteB("A", "B", func(pe int) int { return safe(pe, pe%2) }))
	returns = append(returns, m.RouteA("B", "B", 0, nil)) // src == dst
	return returns
}

// snapshot captures everything a run could get wrong.
type snapshot struct {
	Stats    Stats
	PortUses []int64
	Regs     map[string][]int64
	Returns  []int // per-route conflict return values
}

func takeSnapshot(m *Machine, names []string, returns []int) snapshot {
	regs := make(map[string][]int64)
	for _, name := range names {
		regs[name] = append([]int64(nil), m.Reg(name)...)
	}
	return snapshot{
		Stats:    m.Stats(),
		PortUses: m.PortUses(),
		Regs:     regs,
		Returns:  append([]int(nil), returns...),
	}
}

func newPlanMachine(topo Topology, opts ...Option) *Machine {
	m := New(topo, opts...)
	m.AddReg("A")
	m.AddReg("B")
	init := func() {
		a, b := m.Reg("A"), m.Reg("B")
		for pe := range a {
			a[pe] = int64(3*pe + 1)
			b[pe] = -1
		}
	}
	init()
	return m
}

func resetPlanMachine(m *Machine) {
	a, b := m.Reg("A"), m.Reg("B")
	for pe := range a {
		a[pe] = int64(3*pe + 1)
		b[pe] = -1
	}
	m.ResetStats()
}

// TestReplayBitIdenticalToClosureExecution is the core determinism
// contract: Stats, PortUses, registers and per-route conflict counts
// of a recording run and of a replayed plan must equal
// closure-resolved execution.
func TestReplayBitIdenticalToClosureExecution(t *testing.T) {
	for _, topo := range []Topology{ring{n: 12}, ring{n: 1}, line{n: 9}, line{n: 30}, star4{n: 64}} {
		ref := newPlanMachine(topo)
		refReturns := routeProgram(ref)
		want := takeSnapshot(ref, []string{"A", "B"}, refReturns)

		rec := newPlanMachine(topo)
		plan := rec.Record(func() { routeProgram(rec) })
		if plan.Impure() {
			t.Fatalf("%T: route-only program recorded as impure", topo)
		}
		got := takeSnapshot(rec, []string{"A", "B"}, refReturns)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%T: recording run diverged from closures\nwant %+v\ngot  %+v", topo, want, got)
		}

		resetPlanMachine(rec)
		routes, conflicts := rec.Replay(plan)
		if routes != want.Stats.UnitRoutes || conflicts != want.Stats.ReceiveConflicts {
			t.Errorf("%T: Replay returned (%d, %d), want (%d, %d)",
				topo, routes, conflicts, want.Stats.UnitRoutes, want.Stats.ReceiveConflicts)
		}
		got = takeSnapshot(rec, []string{"A", "B"}, refReturns)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%T: replay diverged from closures\nwant %+v\ngot  %+v", topo, want, got)
		}
	}
}

// TestReplayAcrossTwoMachines records on one machine and replays on
// a second, fresh machine of the same topology: registers (including
// scratch registers the fresh machine never declared), Stats and
// conflicts must match a closure run on a third machine.
func TestReplayAcrossTwoMachines(t *testing.T) {
	topo := ring{n: 20}
	rec := newPlanMachine(topo)
	plan := rec.Record(func() { routeProgram(rec) })

	ref := newPlanMachine(topo)
	routeProgram(ref)
	want := takeSnapshot(ref, []string{"A", "B"}, nil)

	fresh := newPlanMachine(topo)
	fresh.Replay(plan)
	got := takeSnapshot(fresh, []string{"A", "B"}, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cross-machine replay diverged\nwant %+v\ngot  %+v", want, got)
	}
}

// TestReplayConflictSchedule pins the first-message-wins rule under
// heavy many-to-one conflicts: 63 senders collide at PE 0 and the
// replayed winner, loser count and Stats must match the closure run.
func TestReplayConflictSchedule(t *testing.T) {
	topo := star4{n: 64}
	run := func(m *Machine) int {
		return m.RouteB("A", "B", func(pe int) int { return 0 })
	}
	ref := newPlanMachine(topo)
	run(ref)
	want := takeSnapshot(ref, []string{"A", "B"}, nil)
	if want.Stats.ReceiveConflicts != 62 {
		t.Fatalf("closure conflicts = %d, want 62", want.Stats.ReceiveConflicts)
	}

	rec := newPlanMachine(topo)
	plan := rec.Record(func() { run(rec) })
	if plan.Conflicts() != 62 {
		t.Fatalf("plan.Conflicts() = %d, want 62", plan.Conflicts())
	}
	fresh := newPlanMachine(topo)
	if _, conflicts := fresh.Replay(plan); conflicts != 62 {
		t.Fatalf("replay conflicts = %d, want 62", conflicts)
	}
	got := takeSnapshot(fresh, []string{"A", "B"}, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("conflict replay diverged\nwant %+v\ngot  %+v", want, got)
	}
}

// keyedRing wraps ring with a PlanKey so RunPlanned can cache.
type keyedRing struct{ ring }

func (k keyedRing) PlanKey() string { return "test-ring" }

func TestRunPlannedCachesAndReplays(t *testing.T) {
	cache := NewPlanCache()
	topo := keyedRing{ring{n: 16}}
	calls := 0
	schedule := func(m *Machine) func() {
		return func() { calls++; m.RouteA("A", "B", 0, nil) }
	}

	m1 := newPlanMachine(topo)
	p1, routes, _ := m1.RunPlanned(cache, "shift", schedule(m1))
	if p1 == nil || routes != 1 || calls != 1 {
		t.Fatalf("first RunPlanned: plan=%v routes=%d calls=%d", p1, routes, calls)
	}
	p2, routes, _ := m1.RunPlanned(cache, "shift", schedule(m1))
	if p2 != p1 || routes != 1 || calls != 1 {
		t.Fatalf("second RunPlanned did not replay the cached plan (calls=%d)", calls)
	}
	if m1.Stats().UnitRoutes != 2 {
		t.Fatalf("unit routes = %d, want 2", m1.Stats().UnitRoutes)
	}

	// A second machine of the same shape replays without recording.
	m2 := newPlanMachine(topo)
	p3, _, _ := m2.RunPlanned(cache, "shift", schedule(m2))
	if p3 != p1 || calls != 1 {
		t.Fatalf("cross-machine RunPlanned re-recorded (calls=%d)", calls)
	}
	if !reflect.DeepEqual(m2.Reg("B")[:8], m1.Reg("B")[:8]) {
		t.Fatalf("cross-machine replay registers diverged")
	}

	// Plans disabled: schedule runs raw, no plan returned.
	m3 := newPlanMachine(topo, WithPlans(false))
	p4, _, _ := m3.RunPlanned(cache, "shift", schedule(m3))
	if p4 != nil || calls != 2 {
		t.Fatalf("plans-off RunPlanned: plan=%v calls=%d", p4, calls)
	}
	if !m3.PlansEnabled() == false {
		t.Fatalf("PlansEnabled() inconsistent")
	}

	// Unkeyed topology: schedule runs raw every time.
	m4 := newPlanMachine(ring{n: 16})
	if p, _, _ := m4.RunPlanned(cache, "shift", schedule(m4)); p != nil {
		t.Fatalf("unkeyed topology produced a cached plan")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache.Len() = %d, want 1", cache.Len())
	}
	cache.Reset()
	if cache.Len() != 0 {
		t.Fatalf("Reset did not clear the cache")
	}
}

// TestImpureScheduleNotCached: Set/Apply inside a recording mark the
// plan impure; RunPlanned must execute correctly, never cache it,
// and Replay must reject it.
func TestImpureScheduleNotCached(t *testing.T) {
	cache := NewPlanCache()
	topo := keyedRing{ring{n: 8}}
	m := newPlanMachine(topo)
	calls := 0
	impure := func() {
		calls++
		m.Set("A", func(pe int) int64 { return int64(pe) })
		m.RouteA("A", "B", 0, nil)
	}
	p, routes, _ := m.RunPlanned(cache, "impure", impure)
	if p != nil || routes != 1 || cache.Len() != 0 {
		t.Fatalf("impure schedule cached: plan=%v routes=%d len=%d", p, routes, cache.Len())
	}
	// Second call records again (still impure) but still executes.
	m.RunPlanned(cache, "impure", impure)
	if calls != 2 || m.Stats().UnitRoutes != 2 {
		t.Fatalf("impure schedule did not re-execute (calls=%d, routes=%d)", calls, m.Stats().UnitRoutes)
	}

	rec := m.Record(impure)
	if !rec.Impure() {
		t.Fatalf("plan not marked impure")
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(panicString(r), "impure") {
			t.Fatalf("Replay of impure plan did not panic usefully: %v", r)
		}
	}()
	m.Replay(rec)
}

// TestParallelUnconnectedPortPanicMessage checks that a route through
// an unconnected port panics with the same message on every path that
// resolves routes: the direct route and the plan recorder.
func TestParallelUnconnectedPortPanicMessage(t *testing.T) {
	mustPanic := func(route func(m *Machine)) (msg string) {
		defer func() { msg = panicString(recover()) }()
		m := New(line{n: 16})
		m.AddReg("A")
		route(m)
		return ""
	}
	clockwise := func(m *Machine) {
		m.RouteB("A", "A", func(pe int) int { return 0 }) // PE 15 has no clockwise link
	}
	const want = "simd: PE 15 transmits through unconnected port 0"
	if got := mustPanic(clockwise); got != want {
		t.Errorf("direct route panic = %q, want %q", got, want)
	}
	recorded := func(m *Machine) { m.Record(func() { clockwise(m) }) }
	if got := mustPanic(recorded); got != want {
		t.Errorf("recording route panic = %q, want %q", got, want)
	}
}

func panicString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}

// TestNestedRunPlannedSplices: a RunPlanned cache hit inside an
// active recording must splice the inner plan's steps into the outer
// plan, so replaying the outer plan reproduces the full schedule.
func TestNestedRunPlannedSplices(t *testing.T) {
	cache := NewPlanCache()
	topo := keyedRing{ring{n: 10}}
	m := newPlanMachine(topo)
	inner := func() { m.RouteA("A", "B", 0, nil) }
	// Prime the inner plan.
	m.RunPlanned(cache, "inner", inner)

	outer := m.Record(func() {
		m.RunPlanned(cache, "inner", inner) // cache hit → splice
		m.RouteA("B", "A", 1, nil)
	})
	if outer.Routes() != 2 {
		t.Fatalf("outer plan routes = %d, want 2 (inner step not spliced)", outer.Routes())
	}

	ref := newPlanMachine(topo)
	inner2 := func() { ref.RouteA("A", "B", 0, nil) }
	inner2()
	inner2()
	ref.RouteA("B", "A", 1, nil)
	want := takeSnapshot(ref, []string{"A", "B"}, nil)

	fresh := newPlanMachine(topo)
	fresh.RouteA("A", "B", 0, nil) // matches the priming run
	fresh.Replay(outer)
	got := takeSnapshot(fresh, []string{"A", "B"}, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("spliced replay diverged\nwant %+v\ngot  %+v", want, got)
	}
}

// TestPlanValidateRejectsWrongTopology: binding a plan to a machine
// whose topology disagrees must fail loudly.
func TestPlanValidateRejectsWrongTopology(t *testing.T) {
	rec := newPlanMachine(line{n: 9})
	plan := rec.Record(func() { rec.RouteA("A", "B", 0, nil) })
	if err := plan.Validate(line{n: 9}); err != nil {
		t.Fatalf("Validate on the recording topology failed: %v", err)
	}
	if err := plan.Validate(line{n: 30}); err == nil {
		t.Fatalf("Validate accepted a topology of the wrong size")
	}
	// ring{9} has the same size/ports but different links.
	if err := plan.Validate(ring{n: 9}); err != nil {
		// line links are a subset of ring links, so this can pass;
		// the reverse direction must not.
		t.Logf("line-plan on ring validated (links are a subset): %v", err)
	}
	recRing := newPlanMachine(ring{n: 9})
	ringPlan := recRing.Record(func() { recRing.RouteA("A", "B", 0, nil) })
	if err := ringPlan.Validate(line{n: 9}); err == nil {
		t.Fatalf("Validate accepted a ring plan on a line (wrap link missing)")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Replay on a mismatched machine did not panic")
		}
	}()
	newPlanMachine(line{n: 30}).Replay(plan)
}

// TestPlanRegsAndRoutes covers the plan introspection accessors.
func TestPlanRegsAndRoutes(t *testing.T) {
	m := newPlanMachine(ring{n: 6})
	plan := m.Record(func() { routeProgram(m) })
	if plan.Routes() != 5 {
		t.Fatalf("Routes() = %d, want 5", plan.Routes())
	}
	regs := plan.Regs()
	seen := map[string]bool{}
	for _, r := range regs {
		seen[r] = true
	}
	if len(regs) != 2 || !seen["A"] || !seen["B"] {
		t.Fatalf("Regs() = %v, want exactly A and B", regs)
	}
}

// TestTouchedRecoveryAfterRoutePanic: a route that panics mid-scan
// leaves the touched buffer dirty; the next route must start from a
// clean slate (the dirty-list optimization must not skip the
// recovery clear).
func TestTouchedRecoveryAfterRoutePanic(t *testing.T) {
	m := newPlanMachine(line{n: 16})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unconnected route did not panic")
			}
		}()
		// PEs send clockwise; PE 15 panics after earlier PEs have
		// already touched their destinations.
		m.RouteB("A", "B", func(pe int) int { return 0 })
	}()
	ref := newPlanMachine(line{n: 16})
	ref.RouteA("A", "B", 0, nil)
	want := takeSnapshot(ref, []string{"A", "B"}, nil)
	m.ResetStats()
	m.RouteA("A", "B", 0, nil)
	got := takeSnapshot(m, []string{"A", "B"}, nil)
	if !reflect.DeepEqual(want.Regs, got.Regs) || want.Stats != got.Stats {
		t.Errorf("post-panic route diverged\nwant %+v\ngot  %+v", want, got)
	}
	// A completed route resets exactly the receivers it marked, so the
	// next route skips the full clear.
	if !m.touchedClean || slices.Contains(m.touched, true) {
		t.Error("post-panic route left the touched scratch dirty")
	}
}

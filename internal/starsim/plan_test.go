package starsim

import (
	"reflect"
	"testing"

	"starmesh/internal/simd"
)

// TestPlannedRoutesMatchClosureResolution is the star machine's plan
// determinism contract: the plan-replayed schedules (unit routes in
// both models, broadcasts) must leave bit-identical Stats, PortUses
// and registers compared to the closure-resolved paths.
func TestPlannedRoutesMatchClosureResolution(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		planned := New(n)
		if !planned.PlansEnabled() {
			t.Fatalf("plans not enabled by default")
		}
		pStats, pUses, pRegs := starProgram(planned)

		closure := New(n, simd.WithPlans(false))
		cStats, cUses, cRegs := starProgram(closure)

		if pStats != cStats {
			t.Errorf("n=%d: planned stats %+v != closure %+v", n, pStats, cStats)
		}
		if !reflect.DeepEqual(pUses, cUses) {
			t.Errorf("n=%d: port uses diverged", n)
		}
		if !reflect.DeepEqual(pRegs, cRegs) {
			t.Errorf("n=%d: register contents diverged", n)
		}

		// The generic (route-cache-off) closure path must also agree
		// when planned.
		genericPlanned := New(n)
		genericPlanned.SetRouteCache(false)
		gStats, gUses, gRegs := starProgram(genericPlanned)
		if gStats != cStats || !reflect.DeepEqual(gUses, cUses) || !reflect.DeepEqual(gRegs, cRegs) {
			t.Errorf("n=%d: planned generic path diverged", n)
		}
	}
}

// TestPlanReusedAcrossMachines runs the same schedule on two fresh
// machines of the same n: the second replays plans the first
// recorded (via simd.SharedPlans) and must behave bit-identically.
func TestPlanReusedAcrossMachines(t *testing.T) {
	const n = 4
	first := New(n)
	fStats, fUses, fRegs := starProgram(first)
	// The second machine hits the shared cache for every unmasked
	// route and the broadcast; a repeat of the identical program must
	// not diverge in any counter or register.
	second := New(n)
	sStats, sUses, sRegs := starProgram(second)
	if fStats != sStats {
		t.Fatalf("replaying machine stats %+v != recording machine %+v", sStats, fStats)
	}
	if !reflect.DeepEqual(fUses, sUses) || !reflect.DeepEqual(fRegs, sRegs) {
		t.Fatalf("replaying machine registers/port uses diverged")
	}
}

// TestPlannedRoutesUnderParallelPool runs the planned program on the
// pooled parallel executor and checks it against the sequential
// planned run, then closes the pool.
func TestPlannedRoutesUnderParallelPool(t *testing.T) {
	const n = 5
	seqStats, seqUses, seqRegs := starProgram(New(n))
	m := New(n, simd.WithExecutor(simd.Parallel(3)))
	defer m.Close()
	pStats, pUses, pRegs := starProgram(m)
	if seqStats != pStats || !reflect.DeepEqual(seqUses, pUses) || !reflect.DeepEqual(seqRegs, pRegs) {
		t.Error("planned program diverged from sequential")
	}
}

// TestSetRouteCacheKeepsPlanPathsApart: toggling SetRouteCache with
// plans enabled must not replay a plan recorded through the other
// closure path — the memo keys carry the generic flag.
func TestSetRouteCacheKeepsPlanPathsApart(t *testing.T) {
	m := New(4)
	m.AddReg("V")
	m.AddReg("W")
	m.Set("V", func(pe int) int64 { return int64(pe) })
	m.MeshUnitRoute("V", "W", 1, +1) // records via the Lemma-3 tables
	if len(m.murPlans) != 1 {
		t.Fatalf("murPlans = %d entries, want 1", len(m.murPlans))
	}
	m.SetRouteCache(false)
	m.MeshUnitRoute("V", "W", 1, +1) // must record via the generic role tests
	if len(m.murPlans) != 2 {
		t.Fatalf("murPlans = %d entries after SetRouteCache(false), want 2 (generic path not re-recorded)", len(m.murPlans))
	}
	cachedKey := murKey{k: 1, dir: +1, src: "V", dst: "W", generic: false}
	genericKey := murKey{k: 1, dir: +1, src: "V", dst: "W", generic: true}
	if m.murPlans[cachedKey] == nil || m.murPlans[genericKey] == nil {
		t.Fatalf("memo keys missing the generic flag: %v", m.murPlans)
	}
	if m.murPlans[cachedKey] == m.murPlans[genericKey] {
		t.Fatalf("both route-cache paths share one plan pointer")
	}
}

// TestRecordOverBroadcastIsImpure: Broadcast's source self-copy is a
// direct register write the recorder cannot capture, so an explicit
// Record over a Broadcast must yield an impure (non-replayable)
// plan. (Broadcast's own planned path keeps the write outside the
// recorded region, which the broadcast scenarios cover.)
func TestRecordOverBroadcastIsImpure(t *testing.T) {
	m := New(4)
	m.AddReg("V")
	m.AddReg("W")
	m.Reg("V")[0] = 42
	p := m.Record(func() { m.Broadcast("V", "W", 0) })
	if !p.Impure() {
		t.Fatalf("plan over Broadcast not marked impure — replay would drop the source payload")
	}
	for pe, v := range m.Reg("W") {
		if v != 42 {
			t.Fatalf("recording run broke the broadcast itself: W[%d] = %d", pe, v)
		}
	}
}

// TestSetPlansToggle: disabling plans mid-run falls back to closure
// resolution without disturbing results.
func TestSetPlansToggle(t *testing.T) {
	const n = 4
	m := New(n)
	m.AddReg("V")
	m.AddReg("W")
	m.Set("V", func(pe int) int64 { return int64(pe) })
	m.MeshUnitRoute("V", "W", 1, +1) // planned
	m.SetPlans(false)
	m.MeshUnitRoute("V", "W", 1, +1) // closure
	m.SetPlans(true)
	m.MeshUnitRoute("V", "W", 1, +1) // replayed

	ref := New(n, simd.WithPlans(false))
	ref.AddReg("V")
	ref.AddReg("W")
	ref.Set("V", func(pe int) int64 { return int64(pe) })
	for i := 0; i < 3; i++ {
		ref.MeshUnitRoute("V", "W", 1, +1)
	}
	if m.Stats() != ref.Stats() {
		t.Fatalf("toggled stats %+v != reference %+v", m.Stats(), ref.Stats())
	}
	if !reflect.DeepEqual(m.Reg("W"), ref.Reg("W")) {
		t.Fatalf("toggled registers diverged")
	}
}

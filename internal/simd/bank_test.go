package simd

import (
	"fmt"
	"testing"
	"unsafe"
)

// shiftPlan records a one-step clockwise shift A→B and returns it.
// (keyedRing — a ring with a PlanKey — is shared with plan_test.go.)
func shiftPlan(m *Machine) *Plan {
	return m.Record(func() {
		m.RouteA("A", "B", 0, nil)
	})
}

func TestBankSlotAlignment(t *testing.T) {
	m := New(ring{100}) // not a multiple of cacheLineWords: stride must round up
	for i := 0; i < 2*bankChunkRegs+1; i++ {
		m.AddReg(fmt.Sprintf("r%d", i))
	}
	if s := m.bank.stride; s%cacheLineWords != 0 || s < 100 {
		t.Fatalf("stride %d is not a cache-line multiple covering n=100", s)
	}
	for i := 0; i < m.NumRegs(); i++ {
		r := m.RegByHandle(i)
		if len(r) != 100 || cap(r) != 100 {
			t.Fatalf("handle %d: len %d cap %d, want 100/100 (appends must not bleed)", i, len(r), cap(r))
		}
		if addr := uintptr(unsafe.Pointer(&r[0])); addr%cacheLineBytes != 0 {
			t.Fatalf("handle %d starts at %#x — not cache-line aligned", i, addr)
		}
	}
}

func TestBankAppendCannotClobberNeighbor(t *testing.T) {
	m := New(ring{8})
	m.AddReg("A")
	m.AddReg("B") // adjacent slot in the same chunk
	a := m.Reg("A")
	_ = append(a, 999) // cap == len forces a reallocation, not a bleed
	for pe, v := range m.Reg("B") {
		if v != 0 {
			t.Fatalf("append on A leaked into B[%d] = %d", pe, v)
		}
	}
}

// TestBankGrowthAfterPlanBind is the arena-stability contract: a plan
// bound to a machine holds register handles, and registers declared
// afterwards (forcing new chunks) must not move the bound registers
// or change the handles' meaning.
func TestBankGrowthAfterPlanBind(t *testing.T) {
	const n = 32
	rec := New(keyedRing{ring{n}})
	rec.AddReg("A")
	rec.AddReg("B")
	plan := shiftPlan(rec)

	m := New(keyedRing{ring{n}})
	m.AddReg("A")
	m.Set("A", func(pe int) int64 { return int64(pe + 1) })
	m.Replay(plan) // binds: declares B, resolves handles
	aPtr, bPtr := &m.Reg("A")[0], &m.Reg("B")[0]

	// Force growth past several chunk boundaries.
	for i := 0; i < 3*bankChunkRegs+1; i++ {
		m.EnsureReg(fmt.Sprintf("scratch%d", i))
	}
	if &m.Reg("A")[0] != aPtr || &m.Reg("B")[0] != bPtr {
		t.Fatal("EnsureReg growth moved an already-declared register")
	}

	m.Replay(plan) // replays through the pre-growth bound handles
	want := New(keyedRing{ring{n}})
	want.AddReg("A")
	want.AddReg("B")
	want.Set("A", func(pe int) int64 { return int64(pe + 1) })
	want.RouteA("A", "B", 0, nil)
	want.RouteA("A", "B", 0, nil)
	for pe := 0; pe < n; pe++ {
		if got, exp := m.Reg("B")[pe], want.Reg("B")[pe]; got != exp {
			t.Fatalf("post-growth replay diverged at PE %d: got %d want %d", pe, got, exp)
		}
	}
	if m.Stats().Sent != want.Stats().Sent {
		t.Fatalf("post-growth replay Sent = %d, want %d", m.Stats().Sent, want.Stats().Sent)
	}
}

// TestBankResetPreservesCapacity: Reset zeroes contents in place —
// same backing arrays, same arena size, no reallocation.
func TestBankResetPreservesCapacity(t *testing.T) {
	m := New(ring{64})
	for i := 0; i < bankChunkRegs+3; i++ { // span two chunks
		m.AddReg(fmt.Sprintf("r%d", i))
	}
	ptrs := make([]*int64, m.NumRegs())
	for i := range ptrs {
		r := m.RegByHandle(i)
		for pe := range r {
			r[pe] = int64(i*1000 + pe)
		}
		ptrs[i] = &r[0]
	}
	wordsBefore := m.bank.words()

	m.Reset()

	if got := m.bank.words(); got != wordsBefore {
		t.Fatalf("Reset changed arena capacity: %d words → %d", wordsBefore, got)
	}
	for i := range ptrs {
		r := m.RegByHandle(i)
		if &r[0] != ptrs[i] {
			t.Fatalf("Reset moved register %d", i)
		}
		for pe, v := range r {
			if v != 0 {
				t.Fatalf("Reset left register %d PE %d = %d", i, pe, v)
			}
		}
	}
}

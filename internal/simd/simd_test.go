package simd

import "testing"

// ring is a simple test topology: N PEs, port 0 = clockwise,
// port 1 = counter-clockwise.
type ring struct{ n int }

func (r ring) Size() int  { return r.n }
func (r ring) Ports() int { return 2 }
func (r ring) Neighbor(pe, port int) int {
	if port == 0 {
		return (pe + 1) % r.n
	}
	return (pe - 1 + r.n) % r.n
}

// line is a ring with the wrap link cut (boundary ports return -1).
type line struct{ n int }

func (l line) Size() int  { return l.n }
func (l line) Ports() int { return 2 }
func (l line) Neighbor(pe, port int) int {
	if port == 0 {
		if pe+1 >= l.n {
			return -1
		}
		return pe + 1
	}
	if pe == 0 {
		return -1
	}
	return pe - 1
}

// star4 is a many-to-one test topology: every PE's port 0 leads to
// PE 0 (except PE 0 itself, whose port 0 leads to PE 1). Port 1 is
// unconnected everywhere. It exists to provoke receive conflicts.
type star4 struct{ n int }

func (s star4) Size() int  { return s.n }
func (s star4) Ports() int { return 2 }
func (s star4) Neighbor(pe, port int) int {
	if port != 0 {
		return -1
	}
	if pe == 0 {
		return 1
	}
	return 0
}

func TestRegisters(t *testing.T) {
	m := New(ring{4})
	m.AddReg("A")
	if !m.HasReg("A") || m.HasReg("B") {
		t.Fatalf("HasReg wrong")
	}
	m.EnsureReg("A") // no-op
	m.EnsureReg("B")
	if !m.HasReg("B") {
		t.Fatalf("EnsureReg failed")
	}
	m.Set("A", func(pe int) int64 { return int64(pe * 10) })
	if m.Reg("A")[3] != 30 {
		t.Fatalf("Set failed")
	}
	m.SetMasked("A", func(pe int) int64 { return -1 }, func(pe int) bool { return pe%2 == 0 })
	if m.Reg("A")[0] != -1 || m.Reg("A")[1] != 10 {
		t.Fatalf("SetMasked failed: %v", m.Reg("A"))
	}
}

func TestAddRegDuplicatePanics(t *testing.T) {
	m := New(ring{2})
	m.AddReg("A")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	m.AddReg("A")
}

func TestUnknownRegPanics(t *testing.T) {
	m := New(ring{2})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	m.Reg("missing")
}

func TestRouteARing(t *testing.T) {
	m := New(ring{5})
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(pe int) int64 { return int64(pe) })
	m.RouteA("A", "B", 0, nil) // everyone sends clockwise
	for pe := 0; pe < 5; pe++ {
		want := int64((pe - 1 + 5) % 5)
		if m.Reg("B")[pe] != want {
			t.Fatalf("B[%d] = %d, want %d", pe, m.Reg("B")[pe], want)
		}
	}
	s := m.Stats()
	if s.UnitRoutes != 1 || s.ModelA != 1 || s.ModelB != 0 || s.Sent != 5 || s.ReceiveConflicts != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRouteAMasked(t *testing.T) {
	m := New(ring{6})
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(pe int) int64 { return int64(pe + 100) })
	m.Set("B", func(pe int) int64 { return -7 })
	m.RouteA("A", "B", 0, func(pe int) bool { return pe%2 == 0 })
	for pe := 0; pe < 6; pe++ {
		want := int64(-7)
		if pe%2 == 1 { // receiver of even sender pe-1
			want = int64(pe - 1 + 100)
		}
		if m.Reg("B")[pe] != want {
			t.Fatalf("B[%d] = %d, want %d", pe, m.Reg("B")[pe], want)
		}
	}
}

func TestRouteABoundarySilent(t *testing.T) {
	// On a line, the last PE has no clockwise neighbor and must stay
	// silent rather than panic.
	m := New(line{4})
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(pe int) int64 { return int64(pe) })
	m.RouteA("A", "B", 0, nil)
	if m.Stats().Sent != 3 {
		t.Fatalf("sent = %d, want 3", m.Stats().Sent)
	}
	if m.Reg("B")[0] != 0 { // untouched (zero value)
		t.Fatalf("B[0] modified")
	}
}

func TestRouteBPerPEPorts(t *testing.T) {
	m := New(ring{4})
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(pe int) int64 { return int64(pe) })
	// PEs 0,1 send clockwise; 2 sends counter-clockwise; 3 silent.
	ports := []int{0, 0, 1, -1}
	m.RouteB("A", "B", func(pe int) int { return ports[pe] })
	if m.Reg("B")[1] != 0 || m.Reg("B")[2] != 1 {
		t.Fatalf("B = %v", m.Reg("B"))
	}
	s := m.Stats()
	if s.ModelB != 1 || s.Sent != 3 || s.ReceiveConflicts != 1 {
		// PE 1 receives from 0 (cw) and from 2 (ccw): conflict.
		t.Fatalf("stats = %+v", s)
	}
}

func TestReceiveConflictFirstWins(t *testing.T) {
	m := New(ring{3})
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(pe int) int64 { return int64(pe + 1) })
	// 0 sends cw to 1; 2 sends ccw to 1: conflict at 1, first (PE 0) wins.
	c := m.RouteB("A", "B", func(pe int) int {
		switch pe {
		case 0:
			return 0
		case 2:
			return 1
		}
		return -1
	})
	if c != 1 {
		t.Fatalf("conflicts = %d", c)
	}
	if m.Reg("B")[1] != 1 {
		t.Fatalf("B[1] = %d, want first sender's value 1", m.Reg("B")[1])
	}
}

// TestManyToOneConflictLowestSenderWins checks the first-message-wins
// rule under heavy many-to-one conflicts: the lowest sender PE wins
// and every other sender to the same receiver is one conflict.
func TestManyToOneConflictLowestSenderWins(t *testing.T) {
	m := New(star4{n: 64})
	m.AddReg("V")
	m.AddReg("W")
	m.Set("V", func(pe int) int64 { return int64(100 + pe) })
	// Every PE transmits to PE 0 (PE 0 to PE 1): 63 senders collide
	// at PE 0.
	if c := m.RouteB("V", "W", func(pe int) int { return 0 }); c != 62 {
		t.Fatalf("RouteB returned %d conflicts, want 62", c)
	}
	if got := m.Stats(); got.ReceiveConflicts != 62 || got.Sent != 64 {
		t.Fatalf("stats = %+v, want 62 conflicts and 64 sent", got)
	}
	if w := m.Reg("W"); w[0] != 101 || w[1] != 100 { // lowest sender to PE 0 is PE 1
		t.Fatalf("W[0], W[1] = %d, %d, want 101, 100", w[0], w[1])
	}
}

func TestRouteThroughUnconnectedPortPanics(t *testing.T) {
	m := New(line{3})
	m.AddReg("A")
	m.AddReg("B")
	defer func() {
		const want = "simd: PE 2 transmits through unconnected port 0"
		if got := recover(); got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	m.RouteB("A", "B", func(pe int) int { return 0 }) // PE 2 has no port 0
}

func TestApplyCoversEveryPEOnce(t *testing.T) {
	m := New(ring{n: 37})
	m.AddReg("C")
	c := m.Reg("C")
	m.Apply(func(pe int) { c[pe]++ })
	for pe, v := range c {
		if v != 1 {
			t.Fatalf("PE %d visited %d times", pe, v)
		}
	}
}

func TestSelfRouteReadsBeforeWrites(t *testing.T) {
	// Routing a register into itself must behave as a simultaneous
	// shift, not a cascade.
	m := New(ring{5})
	m.AddReg("A")
	m.Set("A", func(pe int) int64 { return int64(pe) })
	m.RouteB("A", "A", func(pe int) int { return 0 })
	for pe := 0; pe < 5; pe++ {
		want := int64((pe - 1 + 5) % 5)
		if m.Reg("A")[pe] != want {
			t.Fatalf("A[%d] = %d, want %d", pe, m.Reg("A")[pe], want)
		}
	}
}

func TestResetStats(t *testing.T) {
	m := New(ring{3})
	m.AddReg("A")
	m.RouteA("A", "A", 0, nil)
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Fatalf("stats not reset")
	}
}

func TestSizeAndTopology(t *testing.T) {
	m := New(ring{7})
	if m.Size() != 7 || m.Topology().Ports() != 2 {
		t.Fatalf("size/topology accessors broken")
	}
}

func TestPortUses(t *testing.T) {
	m := New(ring{4})
	m.AddReg("A")
	m.AddReg("B")
	m.RouteA("A", "B", 0, nil)
	m.RouteA("A", "B", 1, func(pe int) bool { return pe == 0 })
	uses := m.PortUses()
	if uses[0] != 4 || uses[1] != 1 {
		t.Fatalf("port uses = %v", uses)
	}
	// Returned slice is a copy.
	uses[0] = 99
	if m.PortUses()[0] != 4 {
		t.Fatalf("PortUses leaked internal state")
	}
	m.ResetStats()
	for _, u := range m.PortUses() {
		if u != 0 {
			t.Fatalf("reset did not clear port uses")
		}
	}
}

func TestResetClearsRegistersAndStats(t *testing.T) {
	m := New(ring{6})
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(pe int) int64 { return int64(pe + 1) })
	m.RouteA("A", "B", 0, nil)
	if m.Stats().UnitRoutes == 0 || m.Stats().Sent == 0 {
		t.Fatal("route did not run")
	}
	m.Reset()
	if got := m.Stats(); got != (Stats{}) {
		t.Fatalf("stats survived Reset: %+v", got)
	}
	for _, uses := range m.PortUses() {
		if uses != 0 {
			t.Fatalf("port uses survived Reset: %v", m.PortUses())
		}
	}
	for _, name := range []string{"A", "B"} {
		for pe, v := range m.Reg(name) {
			if v != 0 {
				t.Fatalf("register %s[%d] = %d after Reset", name, pe, v)
			}
		}
	}
	// The reset machine must behave exactly like a fresh one.
	fresh := New(ring{6})
	fresh.AddReg("A")
	fresh.AddReg("B")
	run := func(m *Machine) (Stats, []int64) {
		m.Set("A", func(pe int) int64 { return int64(2 * pe) })
		m.RouteA("A", "B", 1, nil)
		return m.Stats(), append([]int64(nil), m.Reg("B")...)
	}
	fs, fb := run(fresh)
	rs, rb := run(m)
	if fs != rs {
		t.Fatalf("reset machine stats diverged: fresh %+v, reset %+v", fs, rs)
	}
	for pe := range fb {
		if fb[pe] != rb[pe] {
			t.Fatalf("reset machine register diverged at PE %d: %d != %d", pe, rb[pe], fb[pe])
		}
	}
}

func TestResetDuringRecordingPanics(t *testing.T) {
	m := New(ring{4})
	m.AddReg("A")
	defer func() {
		if recover() == nil {
			t.Fatal("Reset inside Record did not panic")
		}
	}()
	m.Record(func() { m.Reset() })
}

func TestResetRecoversDirtyTouchedScratch(t *testing.T) {
	// A route that panics mid-flight leaves the touched scratch dirty;
	// Reset must restore the clean state so the next route is exact.
	m := New(ring{4})
	m.AddReg("A")
	m.AddReg("B")
	func() {
		defer func() { recover() }()
		m.RouteB("A", "B", func(pe int) int {
			if pe == 2 {
				panic("boom")
			}
			return 0
		})
	}()
	m.Reset()
	m.Set("A", func(pe int) int64 { return int64(pe + 7) })
	if c := m.RouteA("A", "B", 0, nil); c != 0 {
		t.Fatalf("conflicts on a clean ring route after Reset: %d", c)
	}
	if got := m.Stats().Sent; got != 4 {
		t.Fatalf("Sent = %d after Reset, want 4", got)
	}
}

package simd

import (
	"fmt"
	"reflect"
	"testing"
)

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

// snapshot captures everything an executor could get wrong.
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

// mixedProgram drives a deterministic mix of masked SIMD-A routes,
// per-PE SIMD-B routes, conflicting routes and masked assignments.
func mixedProgram(m *Machine) snapshot {
	m.AddReg("A")
	m.AddReg("B")
	m.Set("A", func(pe int) int64 { return int64(3*pe + 1) })
	m.Set("B", func(pe int) int64 { return -1 })
	// safe keeps a SIMD-B port selection silent at topology
	// boundaries (RouteB panics on unconnected ports by contract).
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
	m.SetMasked("A", func(pe int) int64 { return m.Reg("B")[pe] * 2 }, func(pe int) bool { return pe%4 == 1 })
	// Deliberate conflict: all odd PEs transmit counter-clockwise and
	// all even PEs transmit clockwise, so neighbors collide.
	returns = append(returns, m.RouteB("A", "B", func(pe int) int { return safe(pe, pe%2) }))
	returns = append(returns, m.RouteA("B", "B", 0, nil)) // src == dst
	return takeSnapshot(m, []string{"A", "B"}, returns)
}

func executorsUnderTest() map[string]Executor {
	return map[string]Executor{
		"parallel-1":          Parallel(1),
		"parallel-2":          Parallel(2),
		"parallel-3":          Parallel(3),
		"parallel-7":          Parallel(7),
		"parallel-gomaxprocs": Parallel(0),
	}
}

func TestParallelMatchesSequentialMixedProgram(t *testing.T) {
	for _, topo := range []Topology{ring{n: 12}, ring{n: 1}, line{n: 9}, line{n: 30}} {
		want := mixedProgram(New(topo, WithExecutor(Sequential())))
		for name, exec := range executorsUnderTest() {
			got := mixedProgram(New(topo, WithExecutor(exec)))
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s on %T: snapshot diverged from sequential\nseq: %+v\npar: %+v",
					name, topo, want, got)
			}
		}
	}
}

// TestParallelConflictMergeDeterministic checks the first-message-
// wins rule under heavy many-to-one conflicts: the lowest sender PE
// must win regardless of shard boundaries, and the conflict count
// must match the sequential executor exactly.
func TestParallelConflictMergeDeterministic(t *testing.T) {
	program := func(m *Machine) snapshot {
		m.AddReg("V")
		m.AddReg("W")
		m.Set("V", func(pe int) int64 { return int64(100 + pe) })
		m.Set("W", func(pe int) int64 { return 0 })
		var returns []int
		// Every PE transmits to PE 0 (PE 0 to PE 1): n-1 senders
		// collide at PE 0.
		returns = append(returns, m.RouteB("V", "W", func(pe int) int { return 0 }))
		return takeSnapshot(m, []string{"V", "W"}, returns)
	}
	topo := star4{n: 64}
	want := program(New(topo))
	if want.Stats.ReceiveConflicts != 62 { // 63 senders to PE 0, 1 winner
		t.Fatalf("sequential conflicts = %d, want 62", want.Stats.ReceiveConflicts)
	}
	if want.Regs["W"][0] != 101 { // lowest sender to PE 0 is PE 1
		t.Fatalf("sequential winner = %d, want 101", want.Regs["W"][0])
	}
	for name, exec := range executorsUnderTest() {
		got := program(New(topo, WithExecutor(exec)))
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: conflict merge diverged\nseq: %+v\npar: %+v", name, want, got)
		}
	}
}

func TestParallelUnconnectedPortPanicMessage(t *testing.T) {
	mustPanic := func(exec Executor) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		m := New(line{n: 16}, WithExecutor(exec))
		m.AddReg("A")
		m.RouteB("A", "A", func(pe int) int { return 0 }) // PE 15 has no clockwise link
		return ""
	}
	want := mustPanic(Sequential())
	if want == "" {
		t.Fatal("sequential executor did not panic")
	}
	for name, exec := range executorsUnderTest() {
		if got := mustPanic(exec); got != want {
			t.Errorf("%s panic = %q, want %q", name, got, want)
		}
	}
}

// TestPortUsesNotInflatedAfterRecoveredRoutePanic pins the shard
// counter lifecycle: a route that panics never reaches the merge, so
// its per-shard counts must not leak into the next route's PortUses.
func TestPortUsesNotInflatedAfterRecoveredRoutePanic(t *testing.T) {
	m := New(line{n: 16}, WithExecutor(Parallel(4)))
	m.AddReg("A")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("route through unconnected port did not panic")
			}
		}()
		m.RouteB("A", "A", func(pe int) int { return 0 }) // PE 15 is unconnected
	}()
	base := m.PortUses()
	m.RouteA("A", "A", 0, nil) // 15 senders on a 16-PE line
	got := m.PortUses()
	if got[0]-base[0] != 15 {
		t.Errorf("port 0 uses grew by %d after a recovered panic, want exactly 15", got[0]-base[0])
	}
}

func TestParallelApplyPanicPropagates(t *testing.T) {
	m := New(ring{n: 8}, WithExecutor(Parallel(4)))
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recover() = %v, want boom", r)
		}
	}()
	m.Apply(func(pe int) {
		if pe == 5 {
			panic("boom")
		}
	})
}

func TestApplyCoversEveryPEOnce(t *testing.T) {
	for name, exec := range executorsUnderTest() {
		m := New(ring{n: 37}, WithExecutor(exec))
		m.AddReg("C")
		c := m.Reg("C")
		m.Apply(func(pe int) { c[pe]++ })
		for pe, v := range c {
			if v != 1 {
				t.Fatalf("%s: PE %d visited %d times", name, pe, v)
			}
		}
	}
}

func TestExecutorNamesAndDefault(t *testing.T) {
	if got := New(ring{n: 2}).Executor().Name(); got != "sequential" {
		t.Errorf("default executor = %q, want sequential", got)
	}
	if got := Parallel(4).Name(); got != "parallel-4" {
		t.Errorf("Parallel(4).Name() = %q", got)
	}
	if got := Parallel(0).Name(); got != "parallel" {
		t.Errorf("Parallel(0).Name() = %q", got)
	}
}

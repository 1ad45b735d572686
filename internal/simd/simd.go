// Machine state and instructions: registers, masks, unit routes and
// the Stats counters. The package overview lives in doc.go.

package simd

import "fmt"

// Topology is a port-based network: PE pe's port p leads to
// Neighbor(pe, p), or -1 if that port is unconnected (mesh boundary).
type Topology interface {
	Size() int
	Ports() int
	Neighbor(pe, port int) int
}

// PortFunc selects, for each PE, the port to transmit through in a
// SIMD-B unit route; -1 means the PE stays silent.
type PortFunc func(pe int) int

// Stats accumulates the unit-route counts of a machine.
type Stats struct {
	UnitRoutes       int   // total unit routes executed
	ModelA           int   // routes where all PEs used one common port
	ModelB           int   // routes with per-PE port selection
	Sent             int64 // total messages transmitted
	ReceiveConflicts int   // PEs that received >1 message in one route
}

// Machine is an N-PE SIMD computer over a Topology.
type Machine struct {
	topo     Topology
	bank     *regBank
	stats    Stats
	portUses []int64
	// scratch buffers reused across routes
	inbox []int64
	// touched marks destinations that received a message in the
	// current route. Between routes every entry is false; instead of
	// an O(n) clear per route, touchedDirty lists the marked entries
	// so they can be reset selectively after delivery. touchedClean
	// records that the selective reset completed (a panicking route
	// leaves it false, forcing the next route to do a full clear).
	touched      []bool
	touchedDirty []int32
	touchedClean bool
	// plan state: the recorder active during Record, per-plan register
	// bindings, and the plans-enabled flag (plans are on by default).
	rec      *planRecorder
	bound    map[*Plan]*boundPlan
	plansOff bool
	// collector, when non-nil, receives route/replay events (see
	// collector.go). Survives Reset: it belongs to the machine's
	// owner, not to any one job.
	collector Collector
}

// Option configures a Machine at construction time.
type Option func(*Machine)

// New builds a machine with no registers, configured by opts
// (WithPlans, WithCollector).
func New(topo Topology, opts ...Option) *Machine {
	n := topo.Size()
	m := &Machine{
		topo:         topo,
		bank:         newRegBank(n),
		portUses:     make([]int64, topo.Ports()),
		inbox:        make([]int64, n),
		touched:      make([]bool, n),
		touchedDirty: make([]int32, 0, n),
		touchedClean: true,
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Close does nothing: a machine holds no resource beyond its memory.
// It exists so machines satisfy the Reset/Close resource interface
// the job pools manage (internal/workload's Resource).
func (m *Machine) Close() {}

// Reset returns the machine to its post-construction state for
// reuse: every declared register is zeroed, Stats and PortUses are
// cleared, and the route scratch is restored to its clean state. The
// expensive amortizable state — topology and compiled-plan bindings
// — is deliberately kept, which is the whole point: a pool of reset
// machines serves a stream of jobs without paying construction
// again. Reset must not be called while the machine is recording a
// plan.
func (m *Machine) Reset() {
	if m.rec != nil {
		panic("simd: Reset called while recording a plan")
	}
	m.bank.zero()
	m.ResetStats()
	clear(m.touched)
	m.touchedDirty = m.touchedDirty[:0]
	m.touchedClean = true
}

// clearTouched prepares the touched buffer for a new route. The
// previous route's resetTouched normally already cleared every
// marked entry, so the full O(n) sweep runs only after a route that
// panicked before its reset.
func (m *Machine) clearTouched() {
	if !m.touchedClean {
		for i := range m.touched {
			m.touched[i] = false
		}
	}
	m.touchedDirty = m.touchedDirty[:0]
	m.touchedClean = false
}

// resetTouched clears exactly the entries the current route marked.
func (m *Machine) resetTouched() {
	for _, to := range m.touchedDirty {
		m.touched[to] = false
	}
	m.touchedDirty = m.touchedDirty[:0]
	m.touchedClean = true
}

// PortUses returns, per port index, the number of transmissions that
// used it since the last ResetStats — the link-utilization profile
// of the workload (for the star machine, generator usage).
func (m *Machine) PortUses() []int64 {
	return append([]int64(nil), m.portUses...)
}

// Size returns the number of PEs.
func (m *Machine) Size() int { return m.topo.Size() }

// Topology returns the machine's network.
func (m *Machine) Topology() Topology { return m.topo }

// AddReg declares a register, zero-initialized, carving a
// cache-line-aligned slot from the machine's register bank. The
// returned-by-Reg slice stays valid (and in place) for the machine's
// lifetime: later declarations grow the bank by whole chunks and
// never move existing registers.
func (m *Machine) AddReg(name string) {
	if _, ok := m.bank.index[name]; ok {
		panic(fmt.Sprintf("simd: register %q already exists", name))
	}
	m.bank.add(name)
}

// HasReg reports whether a register has been declared.
func (m *Machine) HasReg(name string) bool {
	_, ok := m.bank.index[name]
	return ok
}

// EnsureReg declares a register if it does not already exist.
func (m *Machine) EnsureReg(name string) {
	if !m.HasReg(name) {
		m.AddReg(name)
	}
}

// Reg returns the backing slice of a register (index = PE id). The
// slice is a fixed window into the machine's register bank: len ==
// cap == Size(), stable across EnsureReg growth and across Reset
// (which zeroes contents in place), so hot loops may hoist it.
func (m *Machine) Reg(name string) []int64 {
	h, ok := m.bank.index[name]
	if !ok {
		panic(fmt.Sprintf("simd: unknown register %q", name))
	}
	return m.bank.slices[h]
}

// Handle resolves a register name to its dense bank handle — the
// index plans bind once so replays never pay the name lookup. Panics
// on unknown names (EnsureReg first).
func (m *Machine) Handle(name string) int {
	h, ok := m.bank.index[name]
	if !ok {
		panic(fmt.Sprintf("simd: unknown register %q", name))
	}
	return h
}

// RegByHandle returns the register slice for a handle from Handle.
func (m *Machine) RegByHandle(h int) []int64 { return m.bank.slices[h] }

// NumRegs returns the number of declared registers.
func (m *Machine) NumRegs() int { return len(m.bank.slices) }

// Set performs the intraprocessor assignment reg(i) := fn(i) on
// every PE (fn may close over other registers via Reg).
func (m *Machine) Set(name string, fn func(pe int) int64) {
	r := m.Reg(name)
	m.markImpure()
	for pe := range r {
		r[pe] = fn(pe)
	}
}

// SetMasked assigns reg(i) := fn(i) only where mask(i) holds — the
// paper's "A(i) := …, (f(i) = y)" masked instruction.
func (m *Machine) SetMasked(name string, fn func(pe int) int64, mask func(pe int) bool) {
	r := m.Reg(name)
	m.markImpure()
	for pe := range r {
		if mask(pe) {
			r[pe] = fn(pe)
		}
	}
}

// Apply runs fn once per PE, in ascending PE order — the machine
// instruction for per-PE compute loops (compare-exchange combines
// and the like). fn(pe) may read any register and write state owned
// by PE pe.
func (m *Machine) Apply(fn func(pe int)) {
	m.markImpure()
	for pe := range m.topo.Size() {
		fn(pe)
	}
}

// route executes one unit route: every PE with portOf(pe) >= 0
// transmits src(pe) through that port; each receiver stores the
// value into dst. Messages are delivered simultaneously (all reads
// precede all writes). Returns the number of receive conflicts.
func (m *Machine) route(src, dst string, portOf PortFunc, modelA bool) int {
	if m.rec != nil {
		return m.recordRoute(src, dst, portOf, modelA)
	}
	conflicts := m.deliver(m.Reg(src), m.Reg(dst), portOf)
	m.stats.UnitRoutes++
	if modelA {
		m.stats.ModelA++
	} else {
		m.stats.ModelB++
	}
	m.stats.ReceiveConflicts += conflicts
	if m.collector != nil {
		m.collector.RecordRoutes(1, conflicts)
	}
	return conflicts
}

// deliver executes the transmit and deliver phases of one unit route
// in one pass over the senders in ascending PE order: it updates
// Sent and PortUses, stages each winning message in the inbox (first
// message wins; a later one to the same receiver is a conflict),
// then writes the winners to dr, so every read precedes every write.
// Returns the number of receive conflicts.
func (m *Machine) deliver(sr, dr []int64, portOf PortFunc) int {
	n := m.topo.Size()
	m.clearTouched()
	conflicts := 0
	for pe := 0; pe < n; pe++ {
		p := portOf(pe)
		if p < 0 {
			continue
		}
		to := m.topo.Neighbor(pe, p)
		if to < 0 {
			panic(fmt.Sprintf("simd: PE %d transmits through unconnected port %d", pe, p))
		}
		m.stats.Sent++
		m.portUses[p]++
		if m.touched[to] {
			conflicts++
			continue // first message wins; conflict recorded
		}
		m.touched[to] = true
		m.touchedDirty = append(m.touchedDirty, int32(to))
		m.inbox[to] = sr[pe]
	}
	for _, to := range m.touchedDirty {
		dr[to] = m.inbox[to]
	}
	m.resetTouched()
	return conflicts
}

// RouteA performs a SIMD-A unit route: every PE whose given port is
// connected and selected by mask (nil = all) transmits src through
// that common port. dst(receiver) := src(sender).
func (m *Machine) RouteA(src, dst string, port int, mask func(pe int) bool) int {
	return m.route(src, dst, func(pe int) int {
		if mask != nil && !mask(pe) {
			return -1
		}
		if m.topo.Neighbor(pe, port) < 0 {
			return -1
		}
		return port
	}, true)
}

// RouteB performs a SIMD-B unit route with per-PE port selection.
func (m *Machine) RouteB(src, dst string, portOf PortFunc) int {
	return m.route(src, dst, portOf, false)
}

// Stats returns a copy of the accumulated counters.
func (m *Machine) Stats() Stats { return m.stats }

// ResetStats zeroes the counters (register contents are preserved).
func (m *Machine) ResetStats() {
	m.stats = Stats{}
	for i := range m.portUses {
		m.portUses[i] = 0
	}
}

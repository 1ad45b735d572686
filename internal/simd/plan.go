// Route-plan compilation: the machine's ahead-of-time layer.
//
// The paper's complexity measure is the unit route, and the repo's
// workloads (snake/shear sorts, broadcasts, mesh-route sweeps) run
// the *same* unit-route schedule thousands of times. Executing such
// a schedule through PortFunc closures re-resolves every PE's port
// and destination — closure dispatch, Neighbor() calls, role tests —
// on every repetition. A Plan performs that resolution exactly once:
//
//   - Record(schedule) runs the schedule normally while capturing
//     each unit route as a dense table of (to, from, port) delivery
//     triples with precomputed Sent/PortUses/conflict counters. The
//     recording pass itself executes through the same step code as
//     replay, so a recorded run is bit-identical to a replayed one.
//   - Replay(plan) re-executes the captured schedule with a tight
//     array walk: no closure calls, no Neighbor() calls, no map
//     lookups (registers are bound to []int64 handles at plan-bind
//     time, once per machine).
//   - PlanCache shares compiled plans across machines of the same
//     shape, keyed by (topology identity, schedule key); SharedPlans
//     is the process-wide instance the machine layers use.
//
// Purity requirements. Replay reproduces exactly what the recording
// observed, so a recordable schedule must be a pure function of the
// topology: its port/mask functions may not depend on register
// contents, external mutable state, or evaluation order, and the
// schedule must consist of unit routes only. Set/SetMasked/Apply
// inside a recording mark the plan impure — the schedule still
// executes correctly, but the plan is rejected by Replay and never
// cached (RunPlanned simply records again on the next call, which
// self-heals schedules whose first run triggers lazy one-time
// initialization through Apply). Direct register writes outside
// machine instructions are invisible to the recorder and must stay
// outside the recorded region. Schedule keys must uniquely determine
// the route sequence for the keyed topology: two schedules that can
// differ (e.g. via different masks or vertex maps) need different
// keys.
package simd

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// PlanKeyer is an optional Topology extension: a stable identity of
// the topology's shape (e.g. "star:8", "mesh:16x16"), letting
// compiled plans be cached and shared across machines of the same
// shape. Topologies without it can still use the explicit
// Record/Replay API, but RunPlanned (and RunMemoized) has no cache
// key for them and simply runs the schedule through the closures.
type PlanKeyer interface{ PlanKey() string }

// planStep is one compiled unit route, stored as a permutation-apply
// table: dst[tos[i]] := src[froms[i]] for every i. Only the winning
// deliveries are kept (first message wins, resolved in ascending
// sender order exactly like Machine.deliver); conflicting and silent
// senders are folded into the precomputed counters. After recording,
// the table is sorted by ascending destination — legal because
// destinations are distinct within a step — so replay writes stream
// through the destination register in address order. ports is
// carried per delivery only for Validate and diagnostics; the hot
// loop never reads it.
type planStep struct {
	src, dst  int // indices into Plan.regs
	modelA    bool
	conflicts int
	sent      int64
	tos       []int32
	froms     []int32
	ports     []int16
	// segs is the run-length decomposition of the permutation: maximal
	// runs where both to and from advance by +1 compile to copy()
	// calls (near-memcpy, no per-element bounds checks). It is non-nil
	// only when the step is "blocky" enough for the copy path to win.
	segs []planSeg
	uses []int64 // per-port transmission counts
}

// planSeg is one contiguous run of a compiled step:
// copy(dst[to:to+n], src[from:from+n]).
type planSeg struct{ to, from, n int32 }

// segMinAvgRun is the minimum average run length at which the
// run-length copy path replaces the gather loop: below it, per-seg
// call overhead beats the bounds-check savings.
const segMinAvgRun = 8

// finalize sorts the delivery table by ascending destination and
// attaches the run-length decomposition when profitable. Reordering
// is semantics-preserving: destinations are distinct (first message
// wins already resolved), and replay reads all sources before any
// write lands (aliased steps stage through the inbox).
func (st *planStep) finalize() {
	n := len(st.tos)
	if n == 0 {
		return
	}
	sort.Sort((*byDestination)(st))
	segs := []planSeg{{to: st.tos[0], from: st.froms[0], n: 1}}
	for i := 1; i < n; i++ {
		last := &segs[len(segs)-1]
		if st.tos[i] == last.to+last.n && st.froms[i] == last.from+last.n {
			last.n++
			continue
		}
		segs = append(segs, planSeg{to: st.tos[i], from: st.froms[i], n: 1})
	}
	if n/len(segs) >= segMinAvgRun {
		st.segs = segs
	}
}

// byDestination sorts a step's delivery table by ascending to,
// co-moving froms and ports.
type byDestination planStep

func (s *byDestination) Len() int           { return len(s.tos) }
func (s *byDestination) Less(i, j int) bool { return s.tos[i] < s.tos[j] }
func (s *byDestination) Swap(i, j int) {
	s.tos[i], s.tos[j] = s.tos[j], s.tos[i]
	s.froms[i], s.froms[j] = s.froms[j], s.froms[i]
	s.ports[i], s.ports[j] = s.ports[j], s.ports[i]
}

// Plan is a compiled sequence of unit routes: dense delivery tables
// resolved once from the schedule's PortFuncs and topology. Plans
// are immutable after Record and safe to replay concurrently from
// many machines of the same shape.
type Plan struct {
	topoKey string // "" when the topology has no PlanKey
	size    int
	ports   int
	impure  bool // schedule ran Set/SetMasked/Apply while recording
	regs    []string
	steps   []planStep
}

// Routes returns the number of unit routes the plan replays.
func (p *Plan) Routes() int { return len(p.steps) }

// Conflicts returns the total receive conflicts one replay adds.
func (p *Plan) Conflicts() int {
	c := 0
	for i := range p.steps {
		c += p.steps[i].conflicts
	}
	return c
}

// Regs returns the names of the registers the plan reads and writes.
func (p *Plan) Regs() []string { return append([]string(nil), p.regs...) }

// Impure reports whether the recorded schedule performed per-PE
// assignments (Set/SetMasked/Apply) that a replay cannot reproduce.
// Impure plans are rejected by Replay and never cached.
func (p *Plan) Impure() bool { return p.impure }

// Validate checks the plan against a topology: matching shape, ports
// in range, and every delivery travelling over a real link (no
// unconnected ports). Machines run it automatically when a plan is
// first bound.
func (p *Plan) Validate(topo Topology) error {
	if topo.Size() != p.size || topo.Ports() != p.ports {
		return fmt.Errorf("simd: plan compiled for %d PEs × %d ports, topology has %d × %d",
			p.size, p.ports, topo.Size(), topo.Ports())
	}
	for si := range p.steps {
		st := &p.steps[si]
		for i := range st.tos {
			to, from, port := st.tos[i], st.froms[i], st.ports[i]
			if port < 0 || int(port) >= p.ports {
				return fmt.Errorf("simd: plan step %d uses port %d of %d", si, port, p.ports)
			}
			if got := topo.Neighbor(int(from), int(port)); got != int(to) {
				return fmt.Errorf("simd: plan step %d delivers PE %d → %d through port %d, but the topology routes it to %d",
					si, from, to, port, got)
			}
		}
	}
	return nil
}

// planRecorder captures unit routes into a plan under construction.
type planRecorder struct {
	plan   *Plan
	regIdx map[string]int
}

func (r *planRecorder) reg(name string) int {
	if i, ok := r.regIdx[name]; ok {
		return i
	}
	i := len(r.plan.regs)
	r.plan.regs = append(r.plan.regs, name)
	r.regIdx[name] = i
	return i
}

// markImpure flags the plan under construction, if any, as
// non-replayable (see the package comment on purity).
func (m *Machine) markImpure() {
	if m.rec != nil {
		m.rec.plan.impure = true
	}
}

// MarkImpure is the exported hook for schedule steps the recorder
// cannot capture — direct register writes outside machine
// instructions. Machine layers call it when such a step executes
// during a recording, so the resulting plan is rejected instead of
// silently replaying an incomplete schedule. A no-op outside
// recordings.
func (m *Machine) MarkImpure() { m.markImpure() }

// WithPlans enables or disables the plan layer. Disabling it routes
// every planned operation through the original closure-resolved
// path — the reference implementation plans are tested against, and
// the baseline the plan benchmarks measure.
func WithPlans(enabled bool) Option {
	return func(m *Machine) { m.plansOff = !enabled }
}

// Record runs schedule with plan recording enabled and returns the
// compiled plan. The schedule executes normally — registers, Stats,
// PortUses and conflict diagnostics advance exactly as they would
// without recording — while every unit route is additionally
// resolved into the plan's dense delivery tables.
func (m *Machine) Record(schedule func()) *Plan {
	if m.rec != nil {
		panic("simd: Record called while already recording")
	}
	tk := ""
	if k, ok := m.topo.(PlanKeyer); ok {
		tk = k.PlanKey()
	}
	rec := &planRecorder{
		plan:   &Plan{topoKey: tk, size: m.topo.Size(), ports: m.topo.Ports()},
		regIdx: make(map[string]int),
	}
	m.rec = rec
	defer func() { m.rec = nil }()
	schedule()
	return rec.plan
}

// recordRoute resolves one unit route into a plan step (ascending
// sender order, first message wins — Machine.deliver's semantics)
// and executes it through the same step code replay uses.
func (m *Machine) recordRoute(src, dst string, portOf PortFunc, modelA bool) int {
	n := m.topo.Size()
	st := planStep{
		src:    m.rec.reg(src),
		dst:    m.rec.reg(dst),
		modelA: modelA,
		uses:   make([]int64, m.topo.Ports()),
	}
	m.clearTouched()
	for pe := 0; pe < n; pe++ {
		p := portOf(pe)
		if p < 0 {
			continue
		}
		to := m.topo.Neighbor(pe, p)
		if to < 0 {
			panic(fmt.Sprintf("simd: PE %d transmits through unconnected port %d", pe, p))
		}
		st.sent++
		st.uses[p]++
		if m.touched[to] {
			st.conflicts++
			continue
		}
		m.touched[to] = true
		m.touchedDirty = append(m.touchedDirty, int32(to))
		st.tos = append(st.tos, int32(to))
		st.froms = append(st.froms, int32(pe))
		st.ports = append(st.ports, int16(p))
	}
	m.resetTouched()
	st.finalize()
	m.execStep(&st, m.Reg(src), m.Reg(dst))
	m.rec.plan.steps = append(m.rec.plan.steps, st)
	if m.collector != nil {
		m.collector.RecordRoutes(1, st.conflicts)
	}
	return st.conflicts
}

// execStep applies one compiled step: the delivery plus every
// counter update. Shared by replay and the recording pass itself, so
// a recorded run and its replays are bit-identical.
func (m *Machine) execStep(st *planStep, sr, dr []int64) {
	m.replayStep(st, sr, dr)
	m.stats.UnitRoutes++
	if st.modelA {
		m.stats.ModelA++
	} else {
		m.stats.ModelB++
	}
	m.stats.Sent += st.sent
	m.stats.ReceiveConflicts += st.conflicts
	for p, u := range st.uses {
		if u != 0 {
			m.portUses[p] += u
		}
	}
}

// replayStep delivers one compiled plan step: dr[to] := sr[from] for
// every pair, reads before writes when sr and dr alias. Counter
// updates belong to execStep, not here.
func (m *Machine) replayStep(st *planStep, sr, dr []int64) {
	tos, froms := st.tos, st.froms
	if aliased(sr, dr) {
		// Reads precede writes: stage through the inbox, indexed by
		// pair position (pairs never outnumber PEs).
		inbox := m.inbox
		for i, f := range froms {
			inbox[i] = sr[f]
		}
		for i, t := range tos {
			dr[t] = inbox[i]
		}
		return
	}
	if st.segs != nil {
		// Run-length copy path: each seg is one memmove, no
		// per-element bounds checks.
		for _, sg := range st.segs {
			copy(dr[sg.to:sg.to+sg.n], sr[sg.from:sg.from+sg.n])
		}
		return
	}
	// Gather loop over the destination-sorted permutation table: the
	// writes stream through dr in address order.
	for i, f := range froms {
		dr[tos[i]] = sr[f]
	}
}

// aliased reports whether two registers share backing storage.
func aliased(a, b []int64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// boundPlan holds a plan's register names resolved to this machine's
// bank handles — the map lookups paid once at bind time. Handles stay
// valid across EnsureReg growth and Reset (the bank never moves a
// register), so a bound plan survives the machine's whole pooled
// lifetime.
type boundPlan struct {
	handles []int
}

// bindPlan resolves and validates a plan against this machine, once
// per (machine, plan) pair. Registers the plan references are
// declared if missing (plans recorded on one machine routinely
// reference scratch registers a fresh machine has not created yet).
func (m *Machine) bindPlan(p *Plan) *boundPlan {
	if bp, ok := m.bound[p]; ok {
		return bp
	}
	if p.impure {
		panic("simd: cannot replay an impure plan (schedule ran Set/Apply while recording)")
	}
	if err := p.Validate(m.topo); err != nil {
		panic(err.Error())
	}
	bp := &boundPlan{handles: make([]int, len(p.regs))}
	for i, name := range p.regs {
		m.EnsureReg(name)
		bp.handles[i] = m.Handle(name)
	}
	if m.bound == nil {
		m.bound = make(map[*Plan]*boundPlan)
	}
	m.bound[p] = bp
	return bp
}

// Replay executes a compiled plan on this machine: the tight
// array-walk loop that replaces closure resolution. Stats, PortUses,
// register contents and conflict diagnostics advance bit-identically
// to running the recorded schedule. Returns the unit routes executed
// and the receive conflicts observed. Replaying inside an active
// recording splices the plan's steps into the plan under
// construction.
func (m *Machine) Replay(p *Plan) (routes, conflicts int) {
	bp := m.bindPlan(p)
	slices := m.bank.slices
	if m.rec != nil {
		for i := range p.steps {
			st := p.steps[i] // copy; delivery tables stay shared (read-only)
			st.src = m.rec.reg(p.regs[p.steps[i].src])
			st.dst = m.rec.reg(p.regs[p.steps[i].dst])
			m.execStep(&st, slices[bp.handles[p.steps[i].src]], slices[bp.handles[p.steps[i].dst]])
			m.rec.plan.steps = append(m.rec.plan.steps, st)
			conflicts += st.conflicts
		}
		if m.collector != nil {
			m.collector.RecordRoutes(len(p.steps), conflicts)
		}
		return len(p.steps), conflicts
	}
	// The collector is notified once per replay with batched totals —
	// timing and per-step calls stay out of the inner loop.
	var start time.Time
	if m.collector != nil {
		start = time.Now()
	}
	for i := range p.steps {
		st := &p.steps[i]
		m.execStep(st, slices[bp.handles[st.src]], slices[bp.handles[st.dst]])
		conflicts += st.conflicts
	}
	if m.collector != nil {
		m.collector.RecordReplay(time.Since(start))
		m.collector.RecordRoutes(len(p.steps), conflicts)
	}
	return len(p.steps), conflicts
}

// PlanCache stores compiled plans keyed by (topology identity,
// schedule key), sharing one-time compilation across machines of the
// same shape. Safe for concurrent use.
type PlanCache struct {
	mu    sync.Mutex
	plans map[planCacheKey]*Plan
}

type planCacheKey struct{ topo, schedule string }

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[planCacheKey]*Plan)}
}

// SharedPlans is the process-wide plan cache every machine layer
// records into by default.
var SharedPlans = NewPlanCache()

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.plans)
}

// Reset drops every cached plan.
func (c *PlanCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans = make(map[planCacheKey]*Plan)
}

func (c *PlanCache) get(topoKey, schedule string) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans[planCacheKey{topoKey, schedule}]
}

// put stores a plan; the first writer wins, so concurrent recorders
// of the same schedule converge on one shared plan.
func (c *PlanCache) put(topoKey, schedule string, p *Plan) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := planCacheKey{topoKey, schedule}
	if existing, ok := c.plans[k]; ok {
		return existing
	}
	c.plans[k] = p
	return p
}

// RunPlanned executes schedule exactly once through the plan layer:
// a cache hit replays the compiled plan, a miss records the schedule
// (executing it) and caches the result. Either way the machine
// advances exactly as if schedule had run directly. The returned
// plan is nil when planning was unavailable — plans disabled, a
// topology without PlanKey, a recording already in progress (the
// outer recording captures the routes), or an impure schedule.
// routes and conflicts report what the execution added to Stats.
func (m *Machine) RunPlanned(c *PlanCache, key string, schedule func()) (p *Plan, routes, conflicts int) {
	before := m.stats
	tk, keyed := m.topo.(PlanKeyer)
	switch {
	case m.plansOff || m.rec != nil || c == nil || !keyed:
		schedule()
	default:
		topoKey := tk.PlanKey()
		if cached := c.get(topoKey, key); cached != nil {
			m.Replay(cached)
			p = cached
		} else if rec := m.Record(schedule); !rec.impure {
			p = c.put(topoKey, key, rec)
		}
	}
	return p, m.stats.UnitRoutes - before.UnitRoutes, m.stats.ReceiveConflicts - before.ReceiveConflicts
}

// RunMemoized is RunPlanned with a caller-held memo map: a memo hit
// replays the plan directly, skipping the key formatting and the
// shared cache's lock on the hot path; a miss delegates to
// RunPlanned(c, key(), schedule) and memoizes any plan it returns.
// A machine with plans disabled runs schedule directly and never
// formats the key, so machine layers call RunMemoized whatever the
// plan setting. The memo key K must capture everything the
// schedule's route sequence depends on (the same contract as the
// string key).
func RunMemoized[K comparable](m *Machine, c *PlanCache, memo map[K]*Plan, k K, key func() string, schedule func()) (routes, conflicts int) {
	if m.plansOff {
		_, routes, conflicts = m.RunPlanned(c, "", schedule)
		return routes, conflicts
	}
	if p := memo[k]; p != nil {
		return m.Replay(p)
	}
	p, routes, conflicts := m.RunPlanned(c, key(), schedule)
	if p != nil {
		memo[k] = p
	}
	return routes, conflicts
}

// Execution engine: the pluggable strategy that carries out the
// per-PE work of a Machine — the transmit/deliver phases of a unit
// route, the per-PE sweeps of Set/SetMasked/Apply, and the delivery
// walk of compiled plan steps (see plan.go).
//
// Executors provided:
//
//   - Sequential(): the reference implementation, one pass over the
//     PEs in ascending order. This is the semantic ground truth.
//   - Parallel(workers): a sharded implementation that splits the PE
//     range into contiguous blocks, resolves every PE's selected
//     port and destination concurrently on the machine's persistent
//     worker pool (started lazily, reused across routes, released by
//     Close), and then merges the per-shard results
//     deterministically: the conflict scan walks senders in
//     ascending PE order exactly like the sequential executor, so
//     Stats, PortUses, register contents and receive-conflict
//     diagnostics are bit-identical to Sequential() for any program
//     whose port/mask/assignment functions are pure (no shared
//     mutable state, no dependence on evaluation order). Every port
//     function in this repository is pure; user programs that close
//     over an *rand.Rand or other order-sensitive state must use
//     Sequential().
//
// The parallel executor pays off when port resolution is expensive
// (the star machine's Lemma-2 role tests cost O(n²) per PE) or the
// machine is large (S_9 has 362,880 PEs); the merge phase is a cheap
// linear scan either way.
package simd

import (
	"fmt"
	"runtime"
	"sort"
)

// Executor carries out the per-PE work of a Machine. Implementations
// are stateless configuration values and may be shared across
// machines; per-machine scratch (including the worker pool) lives in
// the Machine itself.
type Executor interface {
	// Name identifies the executor in diagnostics and bench records.
	Name() string

	// route executes the transmit+deliver phases of one unit route,
	// updating m.stats.Sent, m.portUses and the inbox/touched
	// scratch, and returns the number of receive conflicts.
	route(m *Machine, sr, dr []int64, portOf PortFunc) int

	// apply runs fn(pe) for every pe in [0, m.Size()).
	apply(m *Machine, fn func(pe int))

	// replayStep delivers one compiled plan step: dr[to] := sr[from]
	// for every pair, reads-before-writes when sr and dr alias.
	// Counter updates belong to Machine.execStep, not here.
	replayStep(m *Machine, st *planStep, sr, dr []int64)
}

// Option configures a Machine at construction time.
type Option func(*Machine)

// WithExecutor selects the machine's execution engine. The default
// is Sequential().
func WithExecutor(e Executor) Option {
	return func(m *Machine) {
		if e != nil {
			m.exec = e
		}
	}
}

// Sequential returns the reference executor: one pass over the PEs
// in ascending order, no goroutines.
func Sequential() Executor { return seqExecutor{} }

// Parallel returns the sharded executor running the given number of
// workers per unit route on the machine's persistent pool; workers
// <= 0 selects runtime.GOMAXPROCS(0). Results are bit-identical to
// Sequential() for pure per-PE functions (see the package comment
// above). Call Machine.Close when done to release the pool promptly.
func Parallel(workers int) Executor { return parExecutor{workers: workers} }

// --- sequential ---------------------------------------------------

type seqExecutor struct{}

func (seqExecutor) Name() string { return "sequential" }

func (seqExecutor) route(m *Machine, sr, dr []int64, portOf PortFunc) int {
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

func (seqExecutor) apply(m *Machine, fn func(pe int)) {
	n := m.topo.Size()
	for pe := 0; pe < n; pe++ {
		fn(pe)
	}
}

func (seqExecutor) replayStep(m *Machine, st *planStep, sr, dr []int64) {
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

// --- parallel -----------------------------------------------------

type parExecutor struct {
	workers int
}

func (e parExecutor) Name() string {
	if e.workers <= 0 {
		return "parallel"
	}
	return fmt.Sprintf("parallel-%d", e.workers)
}

func (e parExecutor) workerCount(n int) int {
	w := e.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parScratch is the per-machine buffer set of the parallel executor,
// allocated lazily on the first parallel route/apply.
type parScratch struct {
	ports   []int32   // resolved port per sender; -1 = silent
	dests   []int32   // resolved destination per sender
	sent    []int64   // per-shard transmission count
	uses    [][]int64 // per-shard per-port use count
	badPE   []int     // per-shard lowest PE with an unconnected port
	badPort []int
	panics  []any // per-shard recovered panic value
	// Destination-bucketed dirty lists for phase 3: bucket b holds the
	// winners whose destination falls in [b<<bucketShift,
	// (b+1)<<bucketShift). Bucket width is a multiple of 64 entries, so
	// it covers whole cache lines of both dr (8 int64/line) and the
	// touched bool array (64 bools/line); a phase-3 shard delivering a
	// contiguous bucket range therefore never shares a line with its
	// neighbors. Bucket capacity is retained across routes (truncated
	// to [:0] each route), so steady-state routes allocate nothing.
	buckets     [][]int32
	bucketShift uint
}

func (m *Machine) parScratchFor(w int) *parScratch {
	n := m.topo.Size()
	s := m.par
	if s == nil || len(s.sent) < w {
		// Bucket width: the smallest 64-entry multiple that keeps the
		// bucket count within ~4 per worker (power of two, so phase 2
		// locates a winner's bucket with a shift, not a division).
		shift := uint(6)
		for (n >> shift) > 4*w {
			shift++
		}
		nb := (n + (1 << shift) - 1) >> shift
		s = &parScratch{
			ports:       make([]int32, n),
			dests:       make([]int32, n),
			sent:        make([]int64, w),
			uses:        make([][]int64, w),
			badPE:       make([]int, w),
			badPort:     make([]int, w),
			panics:      make([]any, w),
			buckets:     make([][]int32, nb),
			bucketShift: shift,
		}
		for i := range s.uses {
			s.uses[i] = make([]int64, m.topo.Ports())
		}
		m.par = s
	}
	return s
}

// shardRange returns the contiguous block of shard sh out of w.
func shardRange(n, w, sh int) (lo, hi int) {
	return sh * n / w, (sh + 1) * n / w
}

// rethrow re-raises the lowest-shard worker panic, if any, on the
// caller's goroutine so route/apply panics surface like sequential
// execution instead of crashing the process.
func (s *parScratch) rethrow(w int) {
	for sh := 0; sh < w; sh++ {
		if r := s.panics[sh]; r != nil {
			s.panics[sh] = nil
			panic(r)
		}
	}
}

func (e parExecutor) route(m *Machine, sr, dr []int64, portOf PortFunc) int {
	n := m.topo.Size()
	w := e.workerCount(n)
	if w == 1 {
		return seqExecutor{}.route(m, sr, dr, portOf)
	}
	s := m.parScratchFor(w)
	topo := m.topo

	// Phase 1 (parallel): each shard resolves its senders' ports and
	// destinations, accumulating shard-local counters. The touched
	// buffer is normally already clear (the previous route reset
	// exactly the entries it dirtied); only a route that panicked
	// mid-flight forces the sharded full clear.
	needClear := !m.touchedClean
	m.touchedDirty = m.touchedDirty[:0]
	m.touchedClean = false
	m.poolFor(w).run(w, func(sh int) {
		defer func() { s.panics[sh] = recover() }()
		lo, hi := shardRange(n, w, sh)
		if needClear {
			for pe := lo; pe < hi; pe++ {
				m.touched[pe] = false
			}
		}
		sent := int64(0)
		// Clear this shard's counters here, not in the merge: a
		// panicking route never reaches the merge, and stale counts
		// would corrupt the next route's PortUses if the caller
		// recovers.
		uses := s.uses[sh]
		for p := range uses {
			uses[p] = 0
		}
		bad, badPort := -1, 0
		for pe := lo; pe < hi; pe++ {
			p := portOf(pe)
			s.ports[pe] = int32(p)
			if p < 0 {
				continue
			}
			to := topo.Neighbor(pe, p)
			if to < 0 {
				if bad < 0 {
					bad, badPort = pe, p
				}
				s.ports[pe] = -1
				continue
			}
			s.dests[pe] = int32(to)
			sent++
			uses[p]++
		}
		s.sent[sh] = sent
		s.badPE[sh], s.badPort[sh] = bad, badPort
	})
	s.rethrow(w)
	for sh := 0; sh < w; sh++ {
		if s.badPE[sh] >= 0 {
			panic(fmt.Sprintf("simd: PE %d transmits through unconnected port %d",
				s.badPE[sh], s.badPort[sh]))
		}
	}

	// Merge counters in shard order (sums are order-independent, so
	// this matches the sequential totals exactly).
	for sh := 0; sh < w; sh++ {
		m.stats.Sent += s.sent[sh]
		uses := s.uses[sh]
		for p := range uses {
			m.portUses[p] += uses[p]
		}
	}

	// Phase 2 (sequential): conflict scan over senders in ascending
	// PE order — the same order the sequential executor uses, so the
	// first-message-wins outcome and the conflict count are
	// bit-identical. Winners land in destination-range buckets (the
	// sharded dirty list) instead of one flat list, so phase 3 can hand
	// each shard a contiguous, cache-line-aligned slice of the
	// destination space.
	for b := range s.buckets {
		s.buckets[b] = s.buckets[b][:0]
	}
	conflicts, nd := 0, 0
	shift := s.bucketShift
	for pe := 0; pe < n; pe++ {
		if s.ports[pe] < 0 {
			continue
		}
		to := int(s.dests[pe])
		if m.touched[to] {
			conflicts++
			continue
		}
		m.touched[to] = true
		b := to >> shift
		s.buckets[b] = append(s.buckets[b], int32(to))
		m.inbox[to] = sr[pe]
		nd++
	}

	// Phase 3 (parallel): deliver to the dirtied destinations only,
	// each shard draining a contiguous bucket range (disjoint aligned
	// destination ranges — no false sharing on dr or touched), clearing
	// the touched marks in the same pass.
	nb := len(s.buckets)
	if nd < parDeliverMin {
		for _, bucket := range s.buckets {
			for _, to := range bucket {
				dr[to] = m.inbox[to]
				m.touched[to] = false
			}
		}
	} else {
		m.poolFor(w).run(w, func(sh int) {
			defer func() { s.panics[sh] = recover() }()
			for b := sh * nb / w; b < (sh+1)*nb/w; b++ {
				for _, to := range s.buckets[b] {
					dr[to] = m.inbox[to]
					m.touched[to] = false
				}
			}
		})
		s.rethrow(w)
	}
	m.touchedClean = true
	return conflicts
}

func (e parExecutor) apply(m *Machine, fn func(pe int)) {
	n := m.topo.Size()
	w := e.workerCount(n)
	if w == 1 {
		seqExecutor{}.apply(m, fn)
		return
	}
	s := m.parScratchFor(w)
	m.poolFor(w).run(w, func(sh int) {
		defer func() { s.panics[sh] = recover() }()
		lo, hi := shardRange(n, w, sh)
		for pe := lo; pe < hi; pe++ {
			fn(pe)
		}
	})
	s.rethrow(w)
}

// parDeliverMin and parReplayMin bound the work below which sharding
// a delivery walk costs more than it saves.
const (
	parDeliverMin = 2048
	parReplayMin  = 2048
)

// alignPairBound advances a pair-index bound until its destination no
// longer shares a cache line with its predecessor's. tos is sorted
// ascending with distinct entries, so the loop advances at most
// cacheLineWords-1 positions; the result is monotone in i, keeping
// shard ranges well-ordered (possibly empty).
func alignPairBound(tos []int32, i int) int {
	for i > 0 && i < len(tos) && tos[i]/cacheLineWords == tos[i-1]/cacheLineWords {
		i++
	}
	return i
}

// replayShardBounds returns shard sh's pair range with both ends
// aligned on destination cache-line boundaries: no two shards ever
// write the same line of dr.
func replayShardBounds(tos []int32, w, sh int) (lo, hi int) {
	lo, hi = shardRange(len(tos), w, sh)
	return alignPairBound(tos, lo), alignPairBound(tos, hi)
}

func (e parExecutor) replayStep(m *Machine, st *planStep, sr, dr []int64) {
	np := st.pairCount()
	w := e.workerCount(np)
	if w == 1 || np < parReplayMin {
		seqExecutor{}.replayStep(m, st, sr, dr)
		return
	}
	tos, froms := st.tos, st.froms
	if aliased(sr, dr) {
		// Stage all reads before any write, both phases over the same
		// aligned pair ranges.
		m.poolFor(w).run(w, func(sh int) {
			lo, hi := replayShardBounds(tos, w, sh)
			inbox := m.inbox
			for i := lo; i < hi; i++ {
				inbox[i] = sr[froms[i]]
			}
		})
		m.poolFor(w).run(w, func(sh int) {
			lo, hi := replayShardBounds(tos, w, sh)
			inbox := m.inbox
			for i := lo; i < hi; i++ {
				dr[tos[i]] = inbox[i]
			}
		})
		return
	}
	if st.segs != nil {
		m.poolFor(w).run(w, func(sh int) { st.replaySegShard(sr, dr, w, sh) })
		return
	}
	m.poolFor(w).run(w, func(sh int) {
		lo, hi := replayShardBounds(tos, w, sh)
		for i := lo; i < hi; i++ {
			dr[tos[i]] = sr[froms[i]]
		}
	})
}

// alignSegBound rounds a pair-index bound up until the destination it
// lands on is cache-line aligned, or the bound reaches the end of its
// seg. Monotone in i, so shard ranges stay well-ordered. (When a seg
// boundary itself splits a cache line — contiguous tos whose run broke
// on the from side — adjacent shards may touch that one line; that is
// harmless for correctness, destinations are still distinct.)
func (st *planStep) alignSegBound(i int) int {
	np := st.pairCount()
	if i <= 0 {
		return 0
	}
	if i >= np {
		return np
	}
	j := sort.Search(len(st.segs), func(k int) bool { return st.segStarts[k+1] > int32(i) })
	sg := st.segs[j]
	off := int32(i) - st.segStarts[j]
	to := sg.to + off
	aligned := (to + cacheLineWords - 1) / cacheLineWords * cacheLineWords
	off += aligned - to
	if off > sg.n {
		off = sg.n
	}
	return int(st.segStarts[j] + off)
}

// replaySegShard executes shard sh of a run-length step: the shard's
// pair range with destination-aligned bounds, realized as copy()
// calls over the seg pieces the range intersects.
func (st *planStep) replaySegShard(sr, dr []int64, w, sh int) {
	np := st.pairCount()
	lo := st.alignSegBound(sh * np / w)
	hi := st.alignSegBound((sh + 1) * np / w)
	if lo >= hi {
		return
	}
	j := sort.Search(len(st.segs), func(k int) bool { return st.segStarts[k+1] > int32(lo) })
	for ; j < len(st.segs) && int(st.segStarts[j]) < hi; j++ {
		sg := st.segs[j]
		s0, s1 := int(st.segStarts[j]), int(st.segStarts[j]+sg.n)
		if s0 < lo {
			s0 = lo
		}
		if s1 > hi {
			s1 = hi
		}
		off := int32(s0) - st.segStarts[j]
		cnt := int32(s1 - s0)
		copy(dr[sg.to+off:sg.to+off+cnt], sr[sg.from+off:sg.from+off+cnt])
	}
}

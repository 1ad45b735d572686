// Package simd simulates the paper's SIMD multicomputer (Figure 1):
// N processing elements connected by an interconnection network,
// driven by a control unit that broadcasts instructions and masks.
// Each PE has named registers of word values; data moves only through
// unit routes, and the machine counts them — the paper's complexity
// measure (§2 item 6).
//
// Two models are supported (§2 item 5):
//
//   - SIMD-A: in one unit route every (selected) PE transmits along
//     the same port (the same dimension/generator).
//   - SIMD-B: in one unit route every (selected) PE may transmit to
//     any one of its neighbors.
//
// The simulator enforces the single-transmit rule by construction
// and detects receive conflicts (two messages arriving at one PE in
// the same unit route), which Lemma 5 proves never happen for the
// embedding's unit-route schedule.
//
// The package is organized in four layers; docs/architecture.md at
// the repository root walks the full stack from here up to the HTTP
// service.
//
// # Machine and register banks (simd.go, bank.go)
//
// A Machine is N PEs over a port-based Topology. Register state lives
// in a flat register bank: contiguous cache-line-aligned []int64
// arenas carved into fixed-stride slots, one slot per named register,
// stride = PE count rounded up to a whole number of 64-byte lines.
// Registers are addressed by name (Reg — a map lookup) or by dense
// handle (RegByHandle — pure array indexing); Handle resolves a name
// to its handle once.
//
// The bank's invariants are what the rest of the module leans on:
//
//   - Stability. Arena chunks are appended, never reallocated, so a
//     register's slice is valid, in place, for the machine's whole
//     lifetime — across EnsureReg growth (new registers carve new
//     slots), across Reset (contents are zeroed in place, capacity
//     kept), and therefore across the pooled reuse the job service is
//     built on. Hot loops and bound plans may hoist Reg slices once.
//   - Isolation. Slots never share a cache line (the stride rounds
//     up), and register slices have cap == len (three-index slices),
//     so an accidental append reallocates instead of bleeding into
//     the neighboring register.
//   - Cheap Reset. Zeroing is a linear clear() per chunk — one memset
//     pass over the arena, not a pointer chase over a map.
//
// # Executors (engine.go, pool.go)
//
// An Executor carries out the per-PE work: Sequential() is the
// reference (one ascending pass, the semantic ground truth);
// Parallel(w) shards the PE range over a persistent per-machine
// worker pool. The parallel route keeps its conflict scan sequential in
// ascending sender order — exactly the sequential executor's order —
// so first-message-wins delivery, Stats, PortUses, register contents
// and conflict diagnostics are bit-identical to Sequential() for pure
// per-PE functions. Winning deliveries land in destination-range
// buckets (the sharded dirty list): each delivery shard owns a
// contiguous, cache-line-aligned slice of the destination space, so
// concurrent writers never false-share the destination register or
// the touched scratch.
//
// # Plans: record once, replay as a permutation (plan.go)
//
// Workloads repeat the same unit-route schedule thousands of times.
// Record captures a schedule's routes into planSteps; Replay
// re-executes them without closure dispatch, Neighbor calls or map
// lookups. A compiled step is a permutation-apply table: parallel
// arrays tos/froms sorted by ascending destination (legal because
// destinations are distinct within a step — conflicts were resolved
// at record time), so the replay inner loop
//
//	dr[tos[i]] = sr[froms[i]]
//
// streams its writes through the destination register in address
// order. Steps blocky enough that both indices advance in long +1
// runs additionally carry a run-length decomposition and replay as a
// handful of copy() calls — near-memcpy. Plans bind to a machine
// once (bindPlan), resolving register names to bank handles; the
// bank's stability invariant is what keeps those handles valid
// forever after. Parallel replay splits the pair range on
// destination-cache-line-aligned boundaries, so shards never
// false-share, and reuses the same pool as routes.
//
// Replay invariants, enforced by the parity tests:
//
//   - A recorded run and every replay of it are bit-identical: same
//     registers, Stats, PortUses and conflict counts (recording
//     executes through the same execStep code replay uses).
//   - Sequential and parallel replay are bit-identical.
//   - Replays read every source before writing any destination
//     (aliased src/dst steps stage through the inbox).
//   - Only pure schedules replay: Set/SetMasked/Apply during a
//     recording mark the plan impure, and impure plans are rejected
//     by Replay and never cached.
//
// PlanCache/SharedPlans share compiled plans across machines of the
// same shape (topology PlanKey × schedule key); RunPlanned and
// RunMemoized are the record-or-replay entry points the machine
// layers use.
package simd

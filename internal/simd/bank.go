// Register banks: the machine's register memory system.
//
// Registers used to live in a map of independently allocated slices —
// one heap object per register, scattered wherever the allocator put
// them. The bank replaces that with contiguous, cache-line-aligned
// []int64 arenas carved into fixed-stride slots:
//
//   - one slot per register, stride = PE count rounded up to a whole
//     number of 64-byte cache lines, so no two registers ever share a
//     line;
//   - slots are handed out as three-index subslices (cap == len), so
//     an accidental append can never bleed into the neighboring slot;
//   - arenas are chunked, never reallocated: registers declared after
//     construction (EnsureReg during a run, plan binding on a fresh
//     machine) carve from a new chunk while every previously returned
//     slice — including slices hoisted into hot loops and the
//     handle-resolved slices of bound plans — stays valid. This is
//     the invariant the whole module leans on: Reg/Handle results are
//     stable for the machine's lifetime.
//
// Registers are addressed two ways: by name (Reg, the map lookup) or
// by handle (RegByHandle, an int index into the bank's slot table).
// Plans resolve names to handles once at bind time; every replay
// after that is pure array indexing.
package simd

import "unsafe"

const (
	cacheLineBytes = 64
	// cacheLineWords is the number of int64 register words per cache
	// line — the alignment quantum of slots.
	cacheLineWords = cacheLineBytes / 8
	// bankChunkRegs is how many register slots one arena chunk holds;
	// machines declaring more registers grow by whole chunks.
	bankChunkRegs = 8
)

// regBank is a machine's register memory: aligned arenas carved into
// fixed-stride slots, indexed by name or by dense handle.
type regBank struct {
	n      int // PE count: payload length of every register
	stride int // slot length: n rounded up to a cache-line multiple
	index  map[string]int
	names  []string
	slices [][]int64 // handle → register slice (len == cap == n)
	chunks [][]int64 // aligned arenas; appended to, never reallocated
	spare  []int64   // uncarved tail of the newest chunk
}

func newRegBank(n int) *regBank {
	stride := (n + cacheLineWords - 1) / cacheLineWords * cacheLineWords
	if stride == 0 {
		stride = cacheLineWords // degenerate empty topology: keep slots distinct
	}
	return &regBank{n: n, stride: stride, index: make(map[string]int)}
}

// alignedWords allocates words int64s whose first element sits on a
// cache-line boundary (Go guarantees 8-byte alignment for []int64;
// the over-allocation buys the remaining 56 bytes).
func alignedWords(words int) []int64 {
	if words == 0 {
		return nil
	}
	raw := make([]int64, words+cacheLineWords-1)
	off := 0
	if rem := uintptr(unsafe.Pointer(&raw[0])) % cacheLineBytes; rem != 0 {
		off = int((cacheLineBytes - rem) / 8)
	}
	return raw[off : off+words]
}

// add carves a zeroed slot for a new register and returns its handle.
// The caller (Machine.AddReg) is responsible for duplicate checks.
func (b *regBank) add(name string) int {
	if len(b.spare) < b.stride {
		chunk := alignedWords(b.stride * bankChunkRegs)
		b.chunks = append(b.chunks, chunk)
		b.spare = chunk
	}
	slot := b.spare[0:b.n:b.n] // cap == len: appends can never clobber the next slot
	b.spare = b.spare[b.stride:]
	h := len(b.slices)
	b.slices = append(b.slices, slot)
	b.names = append(b.names, name)
	b.index[name] = h
	return h
}

// zero clears every register in place — whole chunks at a time, which
// is one linear memset pass over the arena rather than a pointer
// chase over a map — while keeping every slice and handle valid. This
// is what makes Machine.Reset cheap on pooled machines: capacity is
// preserved, only contents are zeroed.
func (b *regBank) zero() {
	for _, c := range b.chunks {
		clear(c)
	}
}

// words reports the total arena capacity in int64 words (diagnostic;
// tests assert Reset never shrinks or grows it).
func (b *regBank) words() int {
	w := 0
	for _, c := range b.chunks {
		w += len(c)
	}
	return w
}

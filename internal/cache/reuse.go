package cache

import (
	"fmt"
	"slices"
	"sort"
)

// fileState is the per-file record of the curve builder: the latest access
// position (1-based Fenwick index) and the last observed size, stored
// together so a touch pays one index lookup instead of two.
type fileState struct {
	pos  int32
	size int64
}

// CurveBuilder computes byte-granular LRU reuse distances over an access
// stream in one pass (Mattson's stack algorithm with a Fenwick tree): the
// reuse distance of an access is the number of bytes of distinct files
// touched since the previous access to the same file, inclusive. An access
// hits in an LRU cache of capacity C exactly when its reuse distance is at
// most C, so a single pass yields the hit rate at every cache size — the
// miss-ratio curve used to anchor the analytic model's hit rates for all
// cluster sizes at once.
type CurveBuilder struct {
	bit   []int64             // Fenwick tree over access positions, holding sizes
	files map[int32]fileState // latest access position and size per file
	next  int32

	distances []int64 // recorded reuse distances of measured hits-or-misses
	cold      uint64  // measured accesses with no previous reference
}

// maxInitialPositions caps the position space allocated up front. Beyond
// it, the builder relies on compaction (see grow): only the latest access
// position per distinct file carries weight, so a stream of 10^8 requests
// over 10^5 distinct files needs ~10^5 live positions, not 10^8. The cap is
// 2^22 positions (32 MB of Fenwick tree) — large enough that realistic
// catalogs never compact at all.
const maxInitialPositions = 1 << 22

// NewCurveBuilder sizes the builder for a stream of at most accesses
// accesses (additional accesses grow the structure automatically, and dead
// positions are compacted away, so memory is O(distinct files) regardless
// of stream length).
func NewCurveBuilder(accesses int) *CurveBuilder {
	if accesses < 16 {
		accesses = 16
	}
	if accesses > maxInitialPositions {
		accesses = maxInitialPositions
	}
	return &CurveBuilder{
		bit:   make([]int64, accesses+1),
		files: make(map[int32]fileState),
	}
}

// Warm processes an access without recording a measurement, as cache
// warm-up does.
func (b *CurveBuilder) Warm(id FileID, size int64) {
	b.touch(id, size, false)
}

// Add processes an access and records its reuse distance.
func (b *CurveBuilder) Add(id FileID, size int64) {
	b.touch(id, size, true)
}

func (b *CurveBuilder) touch(id FileID, size int64, record bool) {
	if size < 0 {
		panic(fmt.Sprintf("cache: negative size %d for file %d", size, id))
	}
	// Make room for this access's position first: grow rebuilds the tree
	// from the file table, and compaction renumbers the positions held
	// there, so both must run while the two structures agree — before this
	// access's old position is retired below.
	if int(b.next)+1 >= len(b.bit) {
		b.grow()
	}
	st, seen := b.files[int32(id)]
	if record {
		if !seen {
			b.cold++
		} else {
			// Bytes of distinct files accessed strictly after prev, plus
			// this file itself.
			d := b.suffixSum(int(st.pos)) + st.size
			b.distances = append(b.distances, d)
		}
	}
	if seen {
		b.update(int(st.pos), -st.size)
	}
	b.next++
	b.files[int32(id)] = fileState{pos: b.next, size: size}
	b.update(int(b.next), size)
}

// grow makes room for more access positions. A position is dead once its
// file is re-accessed further up the stream; when at least half the
// position space is dead, the live positions are renumbered 1..L in stream
// order instead of doubling the tree. Renumbering preserves the relative
// order and sizes of all live positions, and reuse distances are suffix
// sums over exactly those, so every subsequent distance is bit-identical to
// the unbounded tree's — while memory stays O(distinct files) no matter how
// long the stream runs.
func (b *CurveBuilder) grow() {
	if 2*len(b.files) <= len(b.bit)-1 {
		b.compact()
		return
	}
	b.bit = make([]int64, len(b.bit)*2)
	// Rebuild from per-file positions (only live positions carry weight).
	// The Fenwick updates are additive, so the map's iteration order
	// cannot affect the rebuilt tree.
	for _, st := range b.files {
		b.update(int(st.pos), st.size)
	}
}

// liveEnt is compact's scratch record: one live (file, position, size).
type liveEnt struct {
	id   int32
	pos  int32
	size int64
}

// compact renumbers live positions 1..L in stream order and rebuilds the
// tree in place.
func (b *CurveBuilder) compact() {
	ents := make([]liveEnt, 0, len(b.files))
	for id, st := range b.files {
		ents = append(ents, liveEnt{id: id, pos: st.pos, size: st.size})
	}
	// Positions are unique, so the sort fixes the order the map's
	// iteration left unspecified.
	sort.Slice(ents, func(i, j int) bool { return ents[i].pos < ents[j].pos })
	for i := range b.bit {
		b.bit[i] = 0
	}
	for i, e := range ents {
		pos := int32(i + 1)
		b.files[e.id] = fileState{pos: pos, size: e.size}
		b.update(int(pos), e.size)
	}
	b.next = int32(len(ents))
}

// update adds delta at position i (1-based Fenwick).
func (b *CurveBuilder) update(i int, delta int64) {
	for ; i < len(b.bit); i += i & (-i) {
		b.bit[i] += delta
	}
}

// prefixSum returns the sum of sizes at positions 1..i.
func (b *CurveBuilder) prefixSum(i int) int64 {
	var s int64
	for ; i > 0; i -= i & (-i) {
		s += b.bit[i]
	}
	return s
}

// suffixSum returns the sum of sizes at positions > i.
func (b *CurveBuilder) suffixSum(i int) int64 {
	return b.prefixSum(int(b.next)) - b.prefixSum(i)
}

// Curve is the finished miss-ratio curve.
type Curve struct {
	distances []int64 // sorted reuse distances of re-references
	measured  uint64  // total measured accesses (re-references + cold)
}

// Curve finalizes the builder.
func (b *CurveBuilder) Curve() *Curve {
	ds := append([]int64(nil), b.distances...)
	slices.Sort(ds)
	return &Curve{distances: ds, measured: uint64(len(ds)) + b.cold}
}

// HitRate returns the LRU hit rate at the given byte capacity: the
// fraction of measured accesses whose reuse distance fits.
func (c *Curve) HitRate(capacity int64) float64 {
	if c.measured == 0 {
		return 0
	}
	hits := sort.Search(len(c.distances), func(i int) bool {
		return c.distances[i] > capacity
	})
	return float64(hits) / float64(c.measured)
}

// MissRate is 1 - HitRate.
func (c *Curve) MissRate(capacity int64) float64 { return 1 - c.HitRate(capacity) }

// Measured returns how many accesses were recorded.
func (c *Curve) Measured() uint64 { return c.measured }

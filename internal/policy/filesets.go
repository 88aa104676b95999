package policy

import (
	"fmt"
	"math/bits"
)

// spillSet is a wide server set: its members in insertion order and when
// the set last changed. Only replicated sets carry a modification time,
// because only they are ever asked for one: a shrink needs a second member.
type spillSet struct {
	members  []int32
	modified float64
}

// A file's entry in the table is 0 for no set, n+1 for the single member
// n < inlineIDs, slotBase+i for a wide set in spill slot i < direct, and
// slotBase+direct for a wide set whose slot the map holds.
const (
	inlineIDs = 1 << 15
	slotBase  = inlineIDs + 1
)

// FileSets maps files to their server sets — the per-file state both LARD/R
// and L2S maintain — for the files of a census: the files one run requests.
// A file's rank among the census's files indexes a dense []uint16, 2 bytes
// per requested file; the rank comes from a bitset over the catalogue and
// the count of census files below each 64-file word of it, 0.19 B per
// catalogued file. An entry is a single member below 32,768, or the spill
// slot of a wide set — a replicated one, or a single member too large to be
// inline, which behaves exactly like one. Wide sets, a few hundred of 10^6
// files, live in a free-listed arena; the entry names the first 32,766
// slots itself and a map from rank to slot holds later ones, so no size is
// refused.
//
// Members keep strict insertion order — growth appends, shrinking removes
// by position — so policies that scan sets in order decide identically to
// the slice-per-file representation they replace.
type FileSets struct {
	census []uint64 // bit f&63 of word f>>6: file f is in the census
	below  []uint32 // census files below word i's first file
	open   bool     // whole catalogue: words past the end are added as FileIDs are ranked
	sets   []uint16 // by rank
	spill  []spillSet
	free   []int32         // recycled spill slots
	wide   map[int32]int32 // rank -> spill slot, for the slots at or past direct
	direct int32           // slots the table names itself; tests lower it
	files  int             // files with a set
	one    [1]int32        // scratch backing for singleton views
}

// NewFileSets returns an empty table for the files requests names, every
// one in [0, files); requests is read, not kept. With nil requests the
// census is the whole catalogue: every bit of [0, files) set, and a FileID
// past it joins, with the rest of its 64-file word, when first ranked.
func NewFileSets(files int, requests []FileID) *FileSets {
	words := (max(files, 0) + 63) / 64
	s := &FileSets{census: make([]uint64, words), below: make([]uint32, words),
		open: requests == nil, wide: map[int32]int32{}, direct: 0xFFFF - slotBase}
	for _, f := range requests {
		s.census[f>>6] |= 1 << (f & 63)
	}
	total := 0
	for w, word := range s.census {
		if s.open {
			word = ^uint64(0)
			s.census[w] = word
		}
		s.below[w] = uint32(total)
		total += bits.OnesCount64(word)
	}
	s.sets = make([]uint16, total)
	return s
}

// Rank returns file f's index in the table: how many census files have a
// smaller FileID. It panics, naming f, when f is outside the census.
func (s *FileSets) Rank(f int32) int32 {
	w := int(uint32(f) >> 6)
	if w >= len(s.census) {
		s.cover(f)
	}
	word, bit := s.census[w], uint64(1)<<(f&63)
	if word&bit == 0 {
		outside(f)
	}
	return int32(s.below[w]) + int32(bits.OnesCount64(word&(bit-1)))
}

// cover appends the all-set words an open census needs to hold f.
func (s *FileSets) cover(f int32) {
	if !s.open || f < 0 {
		outside(f)
	}
	for int(f>>6) >= len(s.census) {
		s.census = append(s.census, ^uint64(0))
		s.below = append(s.below, uint32(len(s.sets)))
		s.sets = append(s.sets, make([]uint16, 64)...)
	}
}

func outside(f int32) {
	panic(fmt.Sprintf("policy: file %d is not among the files the run requests", f))
}

// Len returns the number of files with a set.
func (s *FileSets) Len() int { return s.files }

// Nodes returns the set of the file of rank r in insertion order, or nil
// when it has none. The returned slice is a view: it is valid only until
// the next Nodes or mutating call on s, and must not be modified by the
// caller.
func (s *FileSets) Nodes(r int32) []int32 {
	v := s.sets[r]
	if v == 0 {
		return nil
	}
	if v < slotBase {
		s.one[0] = int32(v) - 1
		return s.one[:1]
	}
	return s.spill[s.slot(r)].members
}

// Modified returns when the replicated set of the file of rank r last
// changed: its move from one member to two, or any later Append, RemoveAt
// or Touch. It is 0 for a file with at most one member.
func (s *FileSets) Modified(r int32) float64 {
	if sp := s.replicated(r); sp != nil {
		return sp.modified
	}
	return 0
}

// SetSingle makes the set of the file of rank r exactly {n}, releasing any
// spill storage. It panics if n is negative.
func (s *FileSets) SetSingle(r int32, n int) {
	if n < 0 {
		panic("policy: FileSets given a negative node id")
	}
	if v := s.sets[r]; v >= slotBase {
		s.release(r)
	} else if v == 0 {
		s.files++
	}
	if n < inlineIDs {
		s.sets[r] = uint16(n + 1)
	} else {
		s.alloc(r, int32(n))
	}
}

// Append adds n at the end of the set of the file of rank r and stamps the
// modification time. Appending to a file with no set creates {n}. It
// panics if n is negative.
func (s *FileSets) Append(r int32, n int, now float64) {
	v := s.sets[r]
	if v == 0 || n < 0 { // SetSingle refuses a negative n
		s.SetSingle(r, n)
		return
	}
	if v < slotBase {
		s.alloc(r, int32(v)-1)
	}
	sp := &s.spill[s.slot(r)]
	sp.members = append(sp.members, int32(n))
	sp.modified = now
}

// RemoveAt deletes the member at position i (insertion order) from the
// replicated set of the file of rank r and stamps the modification time. A
// set shrunk to one member that fits moves back inline and its spill slot
// is recycled.
func (s *FileSets) RemoveAt(r int32, i int, now float64) {
	sp := s.replicated(r)
	if sp == nil {
		return
	}
	sp.members = append(sp.members[:i], sp.members[i+1:]...)
	sp.modified = now
	if n := sp.members[0]; len(sp.members) == 1 && n < inlineIDs {
		s.release(r)
		s.sets[r] = uint16(n + 1)
	}
}

// Touch stamps the modification time of the replicated set of the file of
// rank r without changing its membership; a file with at most one member
// has no time to stamp.
func (s *FileSets) Touch(r int32, now float64) {
	if sp := s.replicated(r); sp != nil {
		sp.modified = now
	}
}

// RangeSizes calls fn with every set's size, in ascending FileID order,
// until fn returns false.
func (s *FileSets) RangeSizes(fn func(size int) bool) {
	for r := range s.sets {
		if size := len(s.Nodes(int32(r))); size > 0 && !fn(size) {
			return
		}
	}
}

// replicated returns the spill set of the file of rank r when it has two
// or more members.
func (s *FileSets) replicated(r int32) *spillSet {
	if s.sets[r] >= slotBase {
		if sp := &s.spill[s.slot(r)]; len(sp.members) > 1 {
			return sp
		}
	}
	return nil
}

// slot returns the spill slot of the wide file of rank r.
func (s *FileSets) slot(r int32) int32 {
	if i := int32(s.sets[r] - slotBase); i < s.direct {
		return i
	}
	return s.wide[r]
}

// alloc marks the file of rank r wide, with a recycled or new spill set
// holding member.
func (s *FileSets) alloc(r int32, member int32) {
	idx := int32(len(s.spill))
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.spill = append(s.spill, spillSet{})
	}
	s.sets[r] = uint16(slotBase + min(idx, s.direct))
	if idx >= s.direct {
		s.wide[r] = idx
	}
	s.spill[idx].members = append(s.spill[idx].members, member)
}

// release recycles the spill slot of the wide file of rank r; the caller
// rewrites s.sets[r].
func (s *FileSets) release(r int32) {
	idx := s.slot(r)
	if idx >= s.direct {
		delete(s.wide, r)
	}
	s.spill[idx].members = s.spill[idx].members[:0]
	s.free = append(s.free, idx)
}

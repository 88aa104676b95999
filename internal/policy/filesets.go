package policy

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
// and L2S maintain. trace.Validate guarantees every FileID lies in
// [0, NumFiles), so the file ID indexes a dense []uint16 directly, 2 bytes
// per catalogued file: a single member below 32,768, or the spill slot of a
// wide set — a replicated one, or a single member too large to be inline,
// which behaves exactly like one. Wide sets, a few hundred of 10^6 files,
// live in a free-listed arena; the entry names the first 32,766 slots itself
// and a map from file to slot holds later ones, so no size is refused.
//
// Members keep strict insertion order — growth appends, shrinking removes
// by position — so policies that scan sets in order decide identically to
// the slice-per-file representation they replace.
type FileSets struct {
	sets   []uint16
	spill  []spillSet
	free   []int32         // recycled spill slots
	wide   map[int32]int32 // file -> spill slot, for the slots at or past direct
	direct int32           // slots the table names itself; tests lower it
	files  int             // files with a set
	one    [1]int32        // scratch backing for singleton views
}

// NewFileSets returns an empty table sized for FileIDs in [0, files); a
// value <= 0 means an empty table. Mutations beyond the size grow it.
func NewFileSets(files int) *FileSets {
	fs := &FileSets{wide: map[int32]int32{}, direct: 0xFFFF - slotBase}
	fs.Reserve(files)
	return fs
}

// Len returns the number of files with a set.
func (s *FileSets) Len() int { return s.files }

// Reserve sizes the table for FileIDs in [0, n), so a catalogue-sized table
// is allocated once.
func (s *FileSets) Reserve(n int) {
	if n > len(s.sets) {
		s.sets = append(s.sets, make([]uint16, n-len(s.sets))...)
	}
}

// Nodes returns the file's server set in insertion order, or nil when the
// file has none. The returned slice is a view: it is valid only until the
// next Nodes or mutating call on s, and must not be modified by the caller.
func (s *FileSets) Nodes(f int32) []int32 {
	if int(f) >= len(s.sets) || s.sets[f] == 0 {
		return nil
	}
	if v := s.sets[f]; v < slotBase {
		s.one[0] = int32(v) - 1
		return s.one[:1]
	}
	return s.spill[s.slot(f)].members
}

// Modified returns when the file's replicated set last changed: its move
// from one member to two, or any later Append, RemoveAt or Touch. It is 0
// for a file with at most one member.
func (s *FileSets) Modified(f int32) float64 {
	if sp := s.replicated(f); sp != nil {
		return sp.modified
	}
	return 0
}

// SetSingle makes the file's set exactly {n}, releasing any spill storage.
// It panics if n is negative.
func (s *FileSets) SetSingle(f int32, n int) {
	if n < 0 {
		panic("policy: FileSets given a negative node id")
	}
	s.Reserve(int(f) + 1)
	if v := s.sets[f]; v >= slotBase {
		s.release(f)
	} else if v == 0 {
		s.files++
	}
	if n < inlineIDs {
		s.sets[f] = uint16(n + 1)
	} else {
		s.alloc(f, int32(n))
	}
}

// Append adds n at the end of the file's set and stamps the modification
// time. Appending to a file with no set creates {n}. It panics if n is
// negative.
func (s *FileSets) Append(f int32, n int, now float64) {
	s.Reserve(int(f) + 1)
	v := s.sets[f]
	if v == 0 || n < 0 { // SetSingle refuses a negative n
		s.SetSingle(f, n)
		return
	}
	if v < slotBase {
		s.alloc(f, int32(v)-1)
	}
	sp := &s.spill[s.slot(f)]
	sp.members = append(sp.members, int32(n))
	sp.modified = now
}

// RemoveAt deletes the member at position i (insertion order) from a
// replicated set and stamps the modification time. A set shrunk to one
// member that fits moves back inline and its spill slot is recycled.
func (s *FileSets) RemoveAt(f int32, i int, now float64) {
	sp := s.replicated(f)
	if sp == nil {
		return
	}
	sp.members = append(sp.members[:i], sp.members[i+1:]...)
	sp.modified = now
	if n := sp.members[0]; len(sp.members) == 1 && n < inlineIDs {
		s.release(f)
		s.sets[f] = uint16(n + 1)
	}
}

// Touch stamps a replicated set's modification time without changing its
// membership; a file with at most one member has no time to stamp.
func (s *FileSets) Touch(f int32, now float64) {
	if sp := s.replicated(f); sp != nil {
		sp.modified = now
	}
}

// RangeSizes calls fn with every file's set size, in ascending FileID
// order, until fn returns false.
func (s *FileSets) RangeSizes(fn func(f int32, size int) bool) {
	for f := range s.sets {
		if size := len(s.Nodes(int32(f))); size > 0 && !fn(int32(f), size) {
			return
		}
	}
}

// replicated returns the spill set of a file with two or more members.
func (s *FileSets) replicated(f int32) *spillSet {
	if int(f) < len(s.sets) && s.sets[f] >= slotBase {
		if sp := &s.spill[s.slot(f)]; len(sp.members) > 1 {
			return sp
		}
	}
	return nil
}

// slot returns wide file f's spill slot.
func (s *FileSets) slot(f int32) int32 {
	if i := int32(s.sets[f] - slotBase); i < s.direct {
		return i
	}
	return s.wide[f]
}

// alloc marks f wide, with a recycled or new spill set holding member.
func (s *FileSets) alloc(f int32, member int32) {
	idx := int32(len(s.spill))
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.spill = append(s.spill, spillSet{})
	}
	s.sets[f] = uint16(slotBase + min(idx, s.direct))
	if idx >= s.direct {
		s.wide[f] = idx
	}
	s.spill[idx].members = append(s.spill[idx].members, member)
}

// release recycles wide file f's spill slot; the caller rewrites s.sets[f].
func (s *FileSets) release(f int32) {
	idx := s.slot(f)
	if idx >= s.direct {
		delete(s.wide, f)
	}
	s.spill[idx].members = s.spill[idx].members[:0]
	s.free = append(s.free, idx)
}

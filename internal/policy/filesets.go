package policy

// spillSet is a replicated server set: its members in insertion order and
// when the set last changed. Only replicated sets carry a modification time,
// because only they are ever asked for one: a shrink needs a second member.
type spillSet struct {
	members  []int32
	modified float64
}

// FileSets maps files to their server sets — the per-file state both LARD/R
// and L2S maintain. trace.Validate guarantees every FileID lies in
// [0, NumFiles), so the file ID indexes a dense []int32 directly, 4 bytes per
// catalogued file and pointer-free: 0 means no set, n+1 the single member n,
// and -(i+1) the replicated set spill[i]. Replicated sets (a small fraction of
// files under both algorithms) live in a free-listed arena.
//
// Members keep strict insertion order — growth appends, shrinking removes
// by position — so policies that scan sets in order decide identically to
// the slice-per-file representation they replace.
type FileSets struct {
	sets  []int32
	spill []spillSet
	free  []int32  // recycled spill slots
	files int      // files with a set
	one   [1]int32 // scratch backing for singleton views
}

// NewFileSets returns an empty table sized for FileIDs in [0, files); a
// value <= 0 means an empty table. Mutations beyond the size grow it.
func NewFileSets(files int) *FileSets {
	fs := &FileSets{}
	fs.Reserve(files)
	return fs
}

// Len returns the number of files with a set.
func (s *FileSets) Len() int { return s.files }

// Reserve sizes the table for FileIDs in [0, n), so a catalogue-sized table
// is allocated once.
func (s *FileSets) Reserve(n int) {
	if n > len(s.sets) {
		s.sets = append(s.sets, make([]int32, n-len(s.sets))...)
	}
}

// Nodes returns the file's server set in insertion order, or nil when the
// file has none. The returned slice is a view: it is valid only until the
// next mutating call on s, and must not be modified by the caller.
func (s *FileSets) Nodes(f int32) []int32 {
	if int(f) >= len(s.sets) {
		return nil
	}
	switch v := s.sets[f]; {
	case v > 0:
		s.one[0] = v - 1
		return s.one[:1]
	case v < 0:
		return s.spill[-v-1].members
	}
	return nil
}

// Modified returns when the file's replicated set last changed: its move
// from one member to two, or any later Append, RemoveAt or Touch. It is 0
// for a file with at most one member.
func (s *FileSets) Modified(f int32) float64 {
	if int(f) < len(s.sets) && s.sets[f] < 0 {
		return s.spill[-s.sets[f]-1].modified
	}
	return 0
}

// SetSingle makes the file's set exactly {n}, releasing any spill storage.
func (s *FileSets) SetSingle(f int32, n int) {
	s.Reserve(int(f) + 1)
	switch v := s.sets[f]; {
	case v < 0:
		s.release(-v - 1)
	case v == 0:
		s.files++
	}
	s.sets[f] = int32(n) + 1
}

// Append adds n at the end of the file's set and stamps the modification
// time. Appending to a file with no set creates {n}.
func (s *FileSets) Append(f int32, n int, now float64) {
	s.Reserve(int(f) + 1)
	switch v := s.sets[f]; {
	case v == 0:
		s.SetSingle(f, n)
	case v > 0:
		idx := s.alloc()
		sp := &s.spill[idx]
		sp.members = append(sp.members, v-1, int32(n))
		sp.modified = now
		s.sets[f] = -(idx + 1)
	default:
		sp := &s.spill[-v-1]
		sp.members = append(sp.members, int32(n))
		sp.modified = now
	}
}

// RemoveAt deletes the member at position i (insertion order) from a
// replicated set and stamps the modification time. A set shrunk to one
// member moves back inline and its spill slot is recycled.
func (s *FileSets) RemoveAt(f int32, i int, now float64) {
	if int(f) >= len(s.sets) || s.sets[f] >= 0 {
		return
	}
	idx := -s.sets[f] - 1
	sp := &s.spill[idx]
	sp.members = append(sp.members[:i], sp.members[i+1:]...)
	if len(sp.members) == 1 {
		s.sets[f] = sp.members[0] + 1
		s.release(idx)
		return
	}
	sp.modified = now
}

// Touch stamps a replicated set's modification time without changing its
// membership; a file with at most one member has no time to stamp.
func (s *FileSets) Touch(f int32, now float64) {
	if int(f) < len(s.sets) && s.sets[f] < 0 {
		s.spill[-s.sets[f]-1].modified = now
	}
}

// RangeSizes calls fn with every file's set size, in ascending FileID
// order, until fn returns false.
func (s *FileSets) RangeSizes(fn func(f int32, size int) bool) {
	for f, v := range s.sets {
		size := 1
		switch {
		case v == 0:
			continue
		case v < 0:
			size = len(s.spill[-v-1].members)
		}
		if !fn(int32(f), size) {
			return
		}
	}
}

func (s *FileSets) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.spill = append(s.spill, spillSet{})
	return int32(len(s.spill) - 1)
}

func (s *FileSets) release(idx int32) {
	s.spill[idx].members = s.spill[idx].members[:0]
	s.free = append(s.free, idx)
}

package policy

import "repro/internal/fastmap"

// fileSet is FileSets' per-file record, 16 bytes and pointer-free: the
// common single-server set is stored inline in first, and only replicated
// sets point (by index, not pointer) into the spill arena.
type fileSet struct {
	first    int32 // the sole member when spill < 0
	spill    int32 // index into the spill arena, or -1
	modified float64
}

// FileSets maps files to their server sets — the per-file state both LARD/R
// and L2S maintain. At paper scale a map of heap-allocated node slices is
// fine; at F=10^7 it is the simulator's largest allocation (a pointer, a
// slice header, and a backing array per file, all GC-scanned). FileSets
// stores the dominant single-server case inline in a flat open-addressed
// table and spills only replicated sets (a small fraction of files under
// both algorithms) to a free-listed arena, cutting per-file cost to 16
// contiguous bytes with zero GC pressure.
//
// Members keep strict insertion order — growth appends, shrinking removes
// by position — so policies that scan sets in order decide identically to
// the slice-per-file representation they replace.
type FileSets struct {
	m     *fastmap.Map[fileSet]
	spill [][]int32
	free  []int32  // recycled spill slots
	one   [1]int32 // scratch backing for singleton views
}

// NewFileSets returns an empty table pre-sized for hint files (0 for
// grow-as-needed).
func NewFileSets(hint int) *FileSets {
	fs := &FileSets{m: fastmap.New[fileSet](0)}
	if hint > 0 {
		fs.m.Reserve(hint)
	}
	return fs
}

// Len returns the number of files with a set.
func (s *FileSets) Len() int { return s.m.Len() }

// Reserve pre-sizes the table for n files without further rehashing.
func (s *FileSets) Reserve(n int) { s.m.Reserve(n) }

// Sizing reports the live entries, how many the table holds before it would
// rehash, and the rehashes so far: an index pre-sized from the right count
// ends its run with grows == 0.
func (s *FileSets) Sizing() (files, capacity, grows int) {
	return s.m.Len(), s.m.Cap(), s.m.Grows()
}

// Nodes returns the file's server set in insertion order, or nil when the
// file has none. The returned slice is a view: it is valid only until the
// next mutating call on s, and must not be modified by the caller.
func (s *FileSets) Nodes(f int32) []int32 {
	e, ok := s.m.Get(f)
	if !ok {
		return nil
	}
	if e.spill < 0 {
		s.one[0] = e.first
		return s.one[:1]
	}
	return s.spill[e.spill]
}

// Modified returns when the file's set last changed (0 for no set).
func (s *FileSets) Modified(f int32) float64 {
	e, _ := s.m.Get(f)
	return e.modified
}

// SetSingle makes the file's set exactly {n}, releasing any spill storage,
// and stamps the modification time.
func (s *FileSets) SetSingle(f int32, n int, now float64) {
	if e, ok := s.m.Get(f); ok && e.spill >= 0 {
		s.release(e.spill)
	}
	s.m.Put(f, fileSet{first: int32(n), spill: -1, modified: now})
}

// Append adds n at the end of the file's set and stamps the modification
// time. Appending to a file with no set creates {n}.
func (s *FileSets) Append(f int32, n int, now float64) {
	e, ok := s.m.Get(f)
	if !ok {
		s.SetSingle(f, n, now)
		return
	}
	if e.spill < 0 {
		idx := s.alloc()
		s.spill[idx] = append(s.spill[idx], e.first, int32(n))
		s.m.Put(f, fileSet{first: e.first, spill: idx, modified: now})
		return
	}
	s.spill[e.spill] = append(s.spill[e.spill], int32(n))
	e.modified = now
	s.m.Put(f, e)
}

// RemoveAt deletes the member at position i (insertion order) from a
// replicated set and stamps the modification time. A set shrunk to one
// member moves back inline and its spill slot is recycled.
func (s *FileSets) RemoveAt(f int32, i int, now float64) {
	e, ok := s.m.Get(f)
	if !ok || e.spill < 0 {
		return
	}
	sp := s.spill[e.spill]
	sp = append(sp[:i], sp[i+1:]...)
	if len(sp) == 1 {
		first := sp[0]
		s.release(e.spill)
		s.m.Put(f, fileSet{first: first, spill: -1, modified: now})
		return
	}
	s.spill[e.spill] = sp
	e.modified = now
	s.m.Put(f, e)
}

// Touch stamps the file's modification time without changing membership.
func (s *FileSets) Touch(f int32, now float64) {
	if e, ok := s.m.Get(f); ok {
		e.modified = now
		s.m.Put(f, e)
	}
}

// RangeSizes calls fn with every file's set size until fn returns false.
// Iteration order is unspecified.
func (s *FileSets) RangeSizes(fn func(f int32, size int) bool) {
	s.m.Range(func(f int32, e fileSet) bool {
		size := 1
		if e.spill >= 0 {
			size = len(s.spill[e.spill])
		}
		return fn(f, size)
	})
}

func (s *FileSets) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.spill = append(s.spill, nil)
	return int32(len(s.spill) - 1)
}

func (s *FileSets) release(idx int32) {
	s.spill[idx] = s.spill[idx][:0]
	s.free = append(s.free, idx)
}

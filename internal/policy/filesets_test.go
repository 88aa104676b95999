package policy

import (
	"math/rand"
	"slices"
	"testing"
)

// refSets is the slice-per-file representation FileSets replaces, used as
// the differential oracle.
type refSets struct {
	nodes    map[int32][]int32
	modified map[int32]float64
}

func newRefSets() *refSets {
	return &refSets{nodes: map[int32][]int32{}, modified: map[int32]float64{}}
}

// TestFileSetsDifferential drives FileSets and the reference through a long
// random schedule of the exact operations LARD and L2S perform — create,
// replace, append (including duplicate members), positional remove, touch —
// and checks membership order after every step, and the modification time
// of every replicated set (the only sets asked for one). The rows cover a
// table sized for every FileID, one that must grow past its size, empty and
// negative sizes, and FileIDs far beyond an empty table.
func TestFileSetsDifferential(t *testing.T) {
	for _, tc := range []struct {
		name        string
		size        int
		base, files int32
	}{
		{"sized", 60, 0, 60},
		{"grows past size", 20, 0, 60},
		{"empty", 0, 0, 60},
		{"negative size", -1, 0, 60},
		{"far ids on empty table", 0, 1 << 20, 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			fs := NewFileSets(tc.size)
			ref := newRefSets()
			now := 0.0
			for step := 0; step < 40_000; step++ {
				now += rng.Float64()
				f := tc.base + int32(rng.Intn(int(tc.files)))
				n := rng.Intn(16)
				switch rng.Intn(5) {
				case 0:
					fs.SetSingle(f, n)
					ref.nodes[f] = []int32{int32(n)}
				case 1:
					fs.Append(f, n, now)
					ref.nodes[f] = append(ref.nodes[f], int32(n))
					ref.modified[f] = now
				case 2:
					if sz := len(ref.nodes[f]); sz > 1 {
						i := rng.Intn(sz)
						fs.RemoveAt(f, i, now)
						ref.nodes[f] = append(ref.nodes[f][:i], ref.nodes[f][i+1:]...)
						ref.modified[f] = now
					}
				case 3:
					if len(ref.nodes[f]) > 1 {
						fs.Touch(f, now)
						ref.modified[f] = now
					}
				case 4:
					got := fs.Nodes(f)
					want := ref.nodes[f]
					if !slices.Equal(got, want) {
						t.Fatalf("step %d file %d: nodes %v, want %v", step, f, got, want)
					}
					if m := fs.Modified(f); len(want) > 1 && m != ref.modified[f] {
						t.Fatalf("step %d file %d: modified %v, want %v", step, f, m, ref.modified[f])
					}
				}
			}
			if fs.Len() != len(ref.nodes) {
				t.Fatalf("Len = %d, want %d", fs.Len(), len(ref.nodes))
			}
			var ids []int32
			fs.RangeSizes(func(f int32, size int) bool {
				if want := len(ref.nodes[f]); size != want {
					t.Fatalf("file %d: RangeSizes size %d, want %d", f, size, want)
				}
				ids = append(ids, f)
				return true
			})
			if len(ids) != len(ref.nodes) {
				t.Fatalf("RangeSizes visited %d files, want %d", len(ids), len(ref.nodes))
			}
			if !slices.IsSorted(ids) {
				t.Fatalf("RangeSizes FileIDs not ascending: %v", ids)
			}
		})
	}
}

// TestFileSetsSpillRecycling pins the memory bound: sets that shrink back
// to one member release their spill slot for reuse, so churn does not grow
// the arena.
func TestFileSetsSpillRecycling(t *testing.T) {
	fs := NewFileSets(0)
	for round := 0; round < 1000; round++ {
		f := int32(round % 10)
		fs.SetSingle(f, 1)
		fs.Append(f, 2, 1)
		fs.Append(f, 3, 2)
		fs.RemoveAt(f, 0, 3)
		fs.RemoveAt(f, 0, 4) // back to a singleton: slot must recycle
		if got := fs.Nodes(f); len(got) != 1 || got[0] != 3 {
			t.Fatalf("round %d: nodes %v, want [3]", round, got)
		}
	}
	if len(fs.spill) > 10 {
		t.Fatalf("spill arena grew to %d slots for 10 files of churn", len(fs.spill))
	}
}

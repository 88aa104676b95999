package policy

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
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

// apply performs one operation on both FileSets and the reference — the
// exact operations LARD and L2S perform on a census file, through its rank:
// create or replace (op 0), append (1, duplicates included), positional
// remove of a replicated set's member at pick mod its size (2), touch (3),
// clear (5, the native replica's tombstone) — or compares the file's Nodes
// and, for a replicated set (the only sets asked for one), Modified (4). It
// reports a mismatch as an error.
func (ref *refSets) apply(fs *FileSets, op int, f int32, n, pick int, now float64) error {
	r := fs.Rank(f)
	switch op {
	case 0:
		fs.SetSingle(r, n)
		ref.nodes[f] = []int32{int32(n)}
	case 1:
		fs.Append(r, n, now)
		ref.nodes[f] = append(ref.nodes[f], int32(n))
		ref.modified[f] = now
	case 2:
		if sz := len(ref.nodes[f]); sz > 1 {
			i := pick % sz
			fs.RemoveAt(r, i, now)
			ref.nodes[f] = append(ref.nodes[f][:i], ref.nodes[f][i+1:]...)
			ref.modified[f] = now
		}
	case 3:
		if len(ref.nodes[f]) > 1 {
			fs.Touch(r, now)
			ref.modified[f] = now
		}
	case 4:
		if got, want := fs.Nodes(r), ref.nodes[f]; !slices.Equal(got, want) {
			return fmt.Errorf("file %d: nodes %v, want %v", f, got, want)
		}
	case 5:
		fs.Clear(r)
		delete(ref.nodes, f)
	}
	want := 0.0
	if len(ref.nodes[f]) > 1 {
		want = ref.modified[f]
	}
	if m := fs.Modified(r); m != want {
		return fmt.Errorf("file %d: modified %v, want %v", f, m, want)
	}
	return nil
}

// check compares Len and RangeSizes — every set's size, in ascending FileID
// order — with the reference, and holds the layout to its invariant: a
// file's entry is wide exactly when its set is replicated or its one member
// is not below inlineIDs, the map has one entry per wide set whose slot is
// not below direct and none for the others, and every spill slot is owned
// by one wide set or free.
func (ref *refSets) check(fs *FileSets) error {
	if fs.Len() != len(ref.nodes) {
		return fmt.Errorf("Len = %d, want %d", fs.Len(), len(ref.nodes))
	}
	var sizes, want []int
	fs.RangeSizes(func(size int) bool {
		sizes = append(sizes, size)
		return true
	})
	for _, f := range slices.Sorted(maps.Keys(ref.nodes)) {
		want = append(want, len(ref.nodes[f]))
	}
	if !slices.Equal(sizes, want) {
		return fmt.Errorf("RangeSizes visited sizes %v, want %v", sizes, want)
	}
	owned := map[int32]bool{}
	inMap := 0
	for f, members := range ref.nodes {
		r := fs.Rank(f)
		isWide := fs.sets[r] >= slotBase
		if want := len(members) > 1 || members[0] >= inlineIDs; isWide != want {
			return fmt.Errorf("file %d with set %v: wide %v, want %v", f, members, isWide, want)
		}
		idx, ok := fs.wide[r]
		if ok != (int32(fs.sets[r]) == slotBase+fs.direct) {
			return fmt.Errorf("file %d: entry %#x but in the map %v", f, fs.sets[r], ok)
		}
		if !isWide {
			continue
		}
		if ok {
			inMap++
		} else {
			idx = int32(fs.sets[r] - slotBase)
		}
		if owned[idx] || ok != (idx >= fs.direct) {
			return fmt.Errorf("file %d: spill slot %d shared, or in the map %v with %d slots named inline", f, idx, ok, fs.direct)
		}
		owned[idx] = true
	}
	if len(fs.wide) != inMap {
		return fmt.Errorf("map holds %d entries for %d wide sets past the table's slots", len(fs.wide), inMap)
	}
	for _, idx := range fs.free {
		if owned[idx] {
			return fmt.Errorf("spill slot %d both free and owned", idx)
		}
		owned[idx] = true
	}
	if len(owned) != len(fs.spill) {
		return fmt.Errorf("%d spill slots, %d owned by wide sets or free", len(fs.spill), len(owned))
	}
	return nil
}

// requestsOf returns a request stream over [0, files) that names every file
// in does, out of order and some twice, and no other: never nil, so an
// empty census stays empty.
func requestsOf(files int, in func(f int32) bool) []FileID {
	requests := []FileID{}
	for f := int32(files) - 1; f >= 0; f-- {
		if in(f) {
			requests = append(requests, FileID(f))
			if f%3 == 0 {
				requests = append(requests, FileID(f))
			}
		}
	}
	return requests
}

// refused reports whether ranking file f panics with a message naming it.
func refused(fs *FileSets, f int32) (ok bool) {
	defer func() {
		ok = strings.Contains(fmt.Sprint(recover()), fmt.Sprintf("file %d ", f))
	}()
	fs.Rank(f)
	return false
}

// TestFileSetsRank holds Rank to a linear count of the census files below
// each file, on catalogues around the 64-file words, for empty, full and
// gapped censuses and one holding only the last file: the table has one
// entry per census file, and a file outside the census, past the
// catalogue or negative is refused by name. A census of the whole
// catalogue (nil requests) ranks every file as itself, and one past the
// catalogue too.
func TestFileSetsRank(t *testing.T) {
	for _, files := range []int{1, 63, 64, 65, 128, 129} {
		for name, in := range map[string]func(f int32) bool{
			"empty":          func(int32) bool { return false },
			"full":           func(int32) bool { return true },
			"gaps":           func(f int32) bool { return f%3 != 1 && f%7 != 0 },
			"last file only": func(f int32) bool { return int(f) == files-1 },
		} {
			fs := NewFileSets(files, requestsOf(files, in))
			below := int32(0)
			for f := int32(0); f < int32(files); f++ {
				if !in(f) {
					if !refused(fs, f) {
						t.Errorf("%d files, %s census: file %d outside it was not refused by name", files, name, f)
					}
					continue
				}
				if r := fs.Rank(f); r != below {
					t.Errorf("%d files, %s census: Rank(%d) = %d, want %d", files, name, f, r, below)
				}
				below++
			}
			if len(fs.sets) != int(below) {
				t.Errorf("%d files, %s census: %d entries for %d census files", files, name, len(fs.sets), below)
			}
			if !refused(fs, int32(files)) || !refused(fs, -1) {
				t.Errorf("%d files, %s census: a file past the catalogue or negative was not refused", files, name)
			}
		}
		whole := NewFileSets(files, nil)
		for f := int32(0); f < int32(files)+70; f++ {
			if r := whole.Rank(f); r != f {
				t.Fatalf("%d files, whole catalogue: Rank(%d) = %d", files, f, r)
			}
		}
		if !refused(whole, -1) {
			t.Errorf("%d files, whole catalogue: a negative file was not refused", files)
		}
	}
}

// TestFileSetsDifferential drives FileSets and the reference through a long
// random schedule of apply's operations on the files of a census, comparing
// after every step, trying a file outside the census now and then (it must
// be refused by name and change nothing), and checking the whole table at
// the end. The rows cover a census with gaps, the whole catalogue and
// FileIDs past it (nil requests), node ids on both sides of the inline
// limit, and wide sets past the slots the table names itself.
func TestFileSetsDifferential(t *testing.T) {
	gaps := func(f int32) bool { return f%5 != 2 && f%64 != 63 }
	for _, tc := range []struct {
		name     string
		files    int
		census   func(int32) bool // nil: the whole catalogue
		span     int32            // FileIDs drawn from [0, span)
		nodeBase int
		direct   int32
	}{
		{"census with gaps", 200, gaps, 200, 0, 0xFFFF - slotBase},
		{"whole catalogue", 60, nil, 60, 0, 0xFFFF - slotBase},
		{"FileIDs past the whole catalogue", 20, nil, 200, 0, 0xFFFF - slotBase},
		{"wide ids", 200, gaps, 200, inlineIDs - 8, 0xFFFF - slotBase},
		{"slots in the map", 200, gaps, 200, 0, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			var requests []FileID
			in := func(int32) bool { return true }
			if tc.census != nil {
				requests, in = requestsOf(tc.files, tc.census), tc.census
			}
			fs := NewFileSets(tc.files, requests)
			fs.direct = tc.direct
			ref := newRefSets()
			now := 0.0
			for step := 0; step < 40_000; step++ {
				now += rng.Float64()
				f := int32(rng.Intn(int(tc.span)))
				if !in(f) {
					if !refused(fs, f) {
						t.Fatalf("step %d: file %d outside the census was not refused by name", step, f)
					}
					continue
				}
				n := tc.nodeBase + rng.Intn(16)
				if err := ref.apply(fs, rng.Intn(6), f, n, rng.Int(), now); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if err := ref.check(fs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzFileSets drives FileSets and the reference through the same operations
// on a 130-file catalogue whose census holds file f when bit f%8 of the
// first byte is set. Each operation is three bytes: operation and node
// (node ids 0-15, 32,764-32,771 on both sides of the inline limit, and
// 65,532-65,539 around the 16-bit range), file (0-3, 62-65 across the first
// word boundary, 126-129 at the catalogue's end), position. A file outside
// the census must be refused by name. The second byte, below 0x80, names
// only 0-3 slots in the table, so the map holds the rest. It checks the
// whole table after every step.
func FuzzFileSets(f *testing.F) {
	f.Add(byte(0xFF), byte(4), []byte{0x10, 0, 0, 0x11, 0, 0, 0x72, 0, 1, 0x13, 0, 0, 0x12, 0, 0})
	f.Add(byte(0x5A), byte(0), []byte{0xf0, 7, 0, 0xf1, 7, 0, 0x11, 7, 0, 0x02, 7, 0, 0x0a, 7, 1, 0x04, 7, 0})
	f.Add(byte(0x3C), byte(0x88), []byte{0xc0, 1, 0, 0x01, 1, 0, 0x09, 2, 0, 0x11, 3, 0, 0x02, 1, 0, 0x0c, 1, 0})
	// Files 63 and 64, either side of the first word boundary, in the
	// census; 62 and 65 outside it.
	f.Add(byte(0x81), byte(0x80), []byte{0x08, 5, 0, 0x10, 6, 0, 0x09, 6, 0, 0x09, 5, 0, 0x0c, 6, 0, 0x08, 4, 0, 0x08, 7, 0})
	// A replicated set cleared with its slot in the map, then rebuilt.
	f.Add(byte(0xFF), byte(0), []byte{0x08, 1, 0, 0x11, 1, 0, 0x19, 1, 0, 0x0d, 1, 0, 0x20, 1, 0, 0x09, 1, 0, 0x05, 1, 0})
	f.Fuzz(func(t *testing.T, census, layout byte, ops []byte) {
		in := func(f int32) bool { return census>>(f%8)&1 == 1 }
		fs := NewFileSets(130, requestsOf(130, in))
		if layout < 0x80 {
			fs.direct = int32(layout) % 4
		}
		ref := newRefSets()
		for step := 0; step+3 <= len(ops); step += 3 {
			node := int(ops[step] >> 3)
			if node >= 24 {
				node += 65_532 - 24
			} else if node >= 16 {
				node += inlineIDs - 4 - 16
			}
			file := int32(ops[step+1] % 12)
			file += [3]int32{0, 62 - 4, 126 - 8}[file/4]
			if !in(file) {
				if !refused(fs, file) {
					t.Fatalf("step %d: file %d outside the census was not refused by name", step/3, file)
				}
				continue
			}
			if err := ref.apply(fs, int(ops[step]&7)%6, file, node, int(ops[step+2]), float64(step+1)); err != nil {
				t.Fatalf("step %d: %v", step/3, err)
			}
			if err := ref.check(fs); err != nil {
				t.Fatalf("step %d: %v", step/3, err)
			}
		}
	})
}

// TestFileSetsRefusesNegativeNode: a negative node id panics in SetSingle
// and Append and leaves the table as it was; it once stored "no set" while
// counting the file in Len.
func TestFileSetsRefusesNegativeNode(t *testing.T) {
	fs := NewFileSets(4, nil)
	for name, call := range map[string]func(){
		"SetSingle":        func() { fs.SetSingle(fs.Rank(1), -1) },
		"Append":           func() { fs.Append(fs.Rank(2), -1, 1) },
		"Append to a set":  func() { fs.SetSingle(fs.Rank(3), 0); fs.Append(fs.Rank(3), -2, 1) },
		"SetSingle of set": func() { fs.SetSingle(fs.Rank(3), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a negative node id did not panic", name)
				}
			}()
			call()
		}()
	}
	if got := fs.Nodes(fs.Rank(3)); fs.Len() != 1 || !slices.Equal(got, []int32{0}) || fs.Nodes(fs.Rank(1)) != nil || fs.Nodes(fs.Rank(2)) != nil {
		t.Fatalf("after refused calls: Len %d, file 3 %v, want 1 and [0]", fs.Len(), got)
	}
}

// TestFileSetsSpillRecycling pins the memory bound: sets that shrink back
// to one fitting member, or are replaced by one, release their spill slot
// for reuse and any map entry, so churn grows neither the arena nor the map,
// whether the table names the slots itself or the map holds them.
func TestFileSetsSpillRecycling(t *testing.T) {
	for _, direct := range []int32{0xFFFF - slotBase, 0} {
		testSpillRecycling(t, direct)
	}
}

func testSpillRecycling(t *testing.T, direct int32) {
	fs := NewFileSets(10, nil)
	fs.direct = direct
	for round := 0; round < 1000; round++ {
		f := fs.Rank(int32(round % 10))
		first := 1
		if round%2 == 1 {
			first = inlineIDs + round // a wide single member
		}
		fs.SetSingle(f, first)
		fs.Append(f, 2, 1)
		fs.Append(f, 3, 2)
		fs.RemoveAt(f, 0, 3)
		fs.RemoveAt(f, 0, 4) // back to a fitting singleton: slot must recycle
		if got := fs.Nodes(f); len(got) != 1 || got[0] != 3 {
			t.Fatalf("round %d: nodes %v, want [3]", round, got)
		}
		if len(fs.wide) != 0 {
			t.Fatalf("round %d: map holds %d entries with no wide set", round, len(fs.wide))
		}
		fs.SetSingle(f, inlineIDs+round)
		fs.SetSingle(f, 4) // a wide single replaced by a fitting one
		if len(fs.wide) != 0 {
			t.Fatalf("round %d: map holds %d entries after a replacement", round, len(fs.wide))
		}
		fs.Append(f, 5, 5)
		fs.Clear(f) // a cleared replicated set: slot must recycle
		if fs.Nodes(f) != nil || len(fs.wide) != 0 {
			t.Fatalf("round %d: after Clear nodes %v, map holds %d entries", round, fs.Nodes(f), len(fs.wide))
		}
	}
	if fs.Len() != 0 {
		t.Fatalf("direct %d: Len %d after every set was cleared", direct, fs.Len())
	}
	if len(fs.spill) > 10 {
		t.Fatalf("direct %d: spill arena grew to %d slots for 10 files of churn", direct, len(fs.spill))
	}
}

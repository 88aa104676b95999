package policy

import (
	"fmt"
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

// apply performs one operation on both FileSets and the reference — the
// exact operations LARD and L2S perform: create or replace (op 0), append
// (1, duplicates included), positional remove of a replicated set's member
// at pick mod its size (2), touch (3) — or compares the file's Nodes and, for
// a replicated set (the only sets asked for one), Modified (4). It reports a
// mismatch as an error.
func (ref *refSets) apply(fs *FileSets, op int, f int32, n, pick int, now float64) error {
	switch op {
	case 0:
		fs.SetSingle(f, n)
		ref.nodes[f] = []int32{int32(n)}
	case 1:
		fs.Append(f, n, now)
		ref.nodes[f] = append(ref.nodes[f], int32(n))
		ref.modified[f] = now
	case 2:
		if sz := len(ref.nodes[f]); sz > 1 {
			i := pick % sz
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
		if got, want := fs.Nodes(f), ref.nodes[f]; !slices.Equal(got, want) {
			return fmt.Errorf("file %d: nodes %v, want %v", f, got, want)
		}
	}
	want := 0.0
	if len(ref.nodes[f]) > 1 {
		want = ref.modified[f]
	}
	if m := fs.Modified(f); m != want {
		return fmt.Errorf("file %d: modified %v, want %v", f, m, want)
	}
	return nil
}

// check compares every set's size, Len and RangeSizes' order with the
// reference, and holds the layout to its invariant: a file's entry is wide
// exactly when its set is replicated or its one member is not below
// inlineIDs, the map has one entry per wide set whose slot is not below
// direct and none for the others, and every spill slot is owned by one wide
// set or free.
func (ref *refSets) check(fs *FileSets) error {
	if fs.Len() != len(ref.nodes) {
		return fmt.Errorf("Len = %d, want %d", fs.Len(), len(ref.nodes))
	}
	var ids []int32
	var err error
	fs.RangeSizes(func(f int32, size int) bool {
		if want := len(ref.nodes[f]); size != want {
			err = fmt.Errorf("file %d: RangeSizes size %d, want %d", f, size, want)
			return false
		}
		ids = append(ids, f)
		return true
	})
	if err != nil {
		return err
	}
	if len(ids) != len(ref.nodes) {
		return fmt.Errorf("RangeSizes visited %d files, want %d", len(ids), len(ref.nodes))
	}
	if !slices.IsSorted(ids) {
		return fmt.Errorf("RangeSizes FileIDs not ascending: %v", ids)
	}
	owned := map[int32]bool{}
	inMap := 0
	for f, members := range ref.nodes {
		isWide := fs.sets[f] >= slotBase
		if want := len(members) > 1 || members[0] >= inlineIDs; isWide != want {
			return fmt.Errorf("file %d with set %v: wide %v, want %v", f, members, isWide, want)
		}
		idx, ok := fs.wide[f]
		if ok != (int32(fs.sets[f]) == slotBase+fs.direct) {
			return fmt.Errorf("file %d: entry %#x but in the map %v", f, fs.sets[f], ok)
		}
		if !isWide {
			continue
		}
		if ok {
			inMap++
		} else {
			idx = int32(fs.sets[f] - slotBase)
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

// TestFileSetsDifferential drives FileSets and the reference through a long
// random schedule of apply's operations, comparing after every step and
// checking the whole table at the end. The rows cover a table sized for
// every FileID, one that must grow past its size, empty and negative sizes,
// FileIDs far beyond an empty table, node ids on both sides of the inline
// limit, and wide sets past the slots the table names itself.
func TestFileSetsDifferential(t *testing.T) {
	for _, tc := range []struct {
		name        string
		size        int
		base, files int32
		nodeBase    int
		direct      int32
	}{
		{"sized", 60, 0, 60, 0, 0xFFFF - slotBase},
		{"grows past size", 20, 0, 60, 0, 0xFFFF - slotBase},
		{"empty", 0, 0, 60, 0, 0xFFFF - slotBase},
		{"negative size", -1, 0, 60, 0, 0xFFFF - slotBase},
		{"far ids on empty table", 0, 1 << 20, 60, 0, 0xFFFF - slotBase},
		{"wide ids", 60, 0, 60, inlineIDs - 8, 0xFFFF - slotBase},
		{"slots in the map", 60, 0, 60, 0, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			fs := NewFileSets(tc.size)
			fs.direct = tc.direct
			ref := newRefSets()
			now := 0.0
			for step := 0; step < 40_000; step++ {
				now += rng.Float64()
				f := tc.base + int32(rng.Intn(int(tc.files)))
				n := tc.nodeBase + rng.Intn(16)
				if err := ref.apply(fs, rng.Intn(5), f, n, rng.Int(), now); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if err := ref.check(fs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzFileSets drives FileSets and the reference through the same operations,
// three bytes each: operation and node (node ids 0-15, 32,764-32,771 on both
// sides of the inline limit, and 65,532-65,539 around the 16-bit range),
// file (0-5 and 300-305, beyond the 0-7-file reserved size), position. The
// first byte sets the reserved size and, below 0x80, names only 0-3 slots
// in the table, so the map holds the rest. It checks the whole table after
// every step.
func FuzzFileSets(f *testing.F) {
	f.Add(byte(4), []byte{0x10, 0, 0, 0x11, 0, 0, 0x72, 0, 1, 0x13, 0, 0, 0x12, 0, 0})
	f.Add(byte(0), []byte{0xf0, 7, 0, 0xf1, 7, 0, 0x11, 7, 0, 0x02, 7, 0, 0x0a, 7, 1, 0x04, 7, 0})
	f.Add(byte(0x88), []byte{0xc0, 1, 0, 0x01, 1, 0, 0x09, 2, 0, 0x11, 3, 0, 0x02, 1, 0, 0x0c, 1, 0})
	f.Fuzz(func(t *testing.T, size byte, ops []byte) {
		fs := NewFileSets(int(size % 8))
		if size < 0x80 {
			fs.direct = int32(size>>3) % 4
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
			if file >= 6 {
				file += 300 - 6
			}
			if err := ref.apply(fs, int(ops[step]&7)%5, file, node, int(ops[step+2]), float64(step+1)); err != nil {
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
	fs := NewFileSets(4)
	for name, call := range map[string]func(){
		"SetSingle":        func() { fs.SetSingle(1, -1) },
		"Append":           func() { fs.Append(2, -1, 1) },
		"Append to a set":  func() { fs.SetSingle(3, 0); fs.Append(3, -2, 1) },
		"SetSingle of set": func() { fs.SetSingle(3, -1) },
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
	if got := fs.Nodes(3); fs.Len() != 1 || !slices.Equal(got, []int32{0}) || fs.Nodes(1) != nil || fs.Nodes(2) != nil {
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
	fs := NewFileSets(0)
	fs.direct = direct
	for round := 0; round < 1000; round++ {
		f := int32(round % 10)
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
	}
	if len(fs.spill) > 10 {
		t.Fatalf("direct %d: spill arena grew to %d slots for 10 files of churn", direct, len(fs.spill))
	}
}

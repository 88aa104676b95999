package native

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestApplySetRefusesRepeatedMember: an update that names one node twice is
// dropped like one naming a node outside the cluster, at any version, and
// leaves the file's version where it was. The map-based replica stored
// [1 1] and passed it on in anti-entropy.
func TestApplySetRefusesRepeatedMember(t *testing.T) {
	s := newState(0, 3, 4, core.DefaultOptions())
	for _, nodes := range [][]int{{1, 1}, {0, 2, 0}, {2, 1, 2}} {
		s.applySet(SetUpdate{File: 0, Nodes: nodes, Version: 1})
		if got := s.serverSet(0); got != nil {
			t.Fatalf("update %v installed %v", nodes, got)
		}
	}
	s.applySet(SetUpdate{File: 1, Nodes: []int{2}, Version: 3})
	s.applySet(SetUpdate{File: 1, Nodes: []int{0, 0}, Version: 9})
	if got := s.exportSets(); len(got) != 1 || !slices.Equal(got[0].Nodes, []int{2}) || got[0].Version != 3 {
		t.Fatalf("after a refused newer update: %+v, want file 1 at [2], version 3", got)
	}
	// The same members, distinct, are accepted.
	s.applySet(SetUpdate{File: 0, Nodes: []int{1, 2}, Version: 1})
	if got := s.serverSet(0); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("set = %v, want [1 2]", got)
	}
}

// TestNativeServerSetFootprint is the size contract of a replica's
// server-set state, modelled on core's TestServerSetTableFootprint: a
// state for 10^5 files with a one-member set installed on each allocates at
// most 2 B (the table entry) + 8 B (the version) per file plus the census
// (8 B of bitset and 4 B of count per 64 files), each rounded up to the
// whole 8 KB pages the runtime hands a large allocation, plus 4 KB for
// everything else. A map of per-file objects read about 100 B per file.
// Allocation is counted for the whole process, so each reading starts after
// a collection at GOMAXPROCS(1) and the fewest bytes of three is the answer.
func TestNativeServerSetFootprint(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector changes what is allocated")
	}
	const files, nodes = 100_000, 4
	pages := func(n int) uint64 { return uint64((n + 8191) / 8192 * 8192) }
	words := (files + 63) / 64
	budget := pages(2*files) + pages(8*files) + pages(8*words) + pages(4*words) + 4096
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocated := uint64(math.MaxUint64)
	for range 3 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := newState(0, nodes, files, core.DefaultOptions())
		for f := range files {
			s.applySet(SetUpdate{File: cache.FileID(f), Nodes: []int{f % nodes}, Version: 1})
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d files: %d B allocated (%.2f B per file), budget %d", files, allocated, float64(allocated)/files, budget)
	if allocated > budget {
		t.Fatalf("a state for %d files with one set each allocated %d B, budget %d", files, allocated, budget)
	}
}

// nativeStatePair is FuzzNativeState's harness: the replica under test and
// the map-based reference, on one clock of whole milliseconds.
type nativeStatePair struct {
	got *state
	ref *refState
	ms  int64
}

const (
	fuzzNodes = 4
	fuzzFiles = 6
)

func newNativeStatePair() *nativeStatePair {
	// ShrinkAfter lies half a millisecond off the clock's grid, so float
	// seconds since the epoch and time.Time agree on every comparison.
	opts := core.Options{T: 2, LowT: 1, BroadcastDelta: 1, ShrinkAfter: 0.0025}
	p := &nativeStatePair{got: newState(0, fuzzNodes, fuzzFiles, opts), ref: newRefState(0, fuzzNodes, fuzzFiles, opts)}
	t0 := time.Unix(1e9, 0)
	now := func() time.Time { return t0.Add(time.Duration(p.ms) * time.Millisecond) }
	p.got.epoch, p.got.now, p.ref.now = t0, now, now
	return p
}

// sortedByFile returns us sorted by file, dropping empty sets at version 0:
// the reference keeps such a tombstone for a file it had never seen, which
// behaves exactly like no entry.
func sortedByFile(us []SetUpdate) []SetUpdate {
	us = slices.DeleteFunc(slices.Clone(us), func(u SetUpdate) bool { return len(u.Nodes) == 0 && u.Version == 0 })
	slices.SortFunc(us, func(a, b SetUpdate) int { return cmp.Compare(a.File, b.File) })
	return us
}

func sameUpdates(a, b []SetUpdate) bool {
	return slices.EqualFunc(a, b, func(x, y SetUpdate) bool {
		return x.File == y.File && x.Version == y.Version && slices.Equal(x.Nodes, y.Nodes)
	})
}

// compare holds every observable of the two replicas equal: each file's
// set, the exported state sorted by file, and every load.
func (p *nativeStatePair) compare() error {
	for f := cache.FileID(0); f < fuzzFiles; f++ {
		if got, want := p.got.serverSet(f), p.ref.serverSet(f); !slices.Equal(got, want) {
			return fmt.Errorf("file %d: set %v, reference %v", f, got, want)
		}
	}
	if got, want := sortedByFile(p.got.exportSets()), sortedByFile(p.ref.exportSets()); !sameUpdates(got, want) {
		return fmt.Errorf("exported %+v, reference %+v", got, want)
	}
	for i := range fuzzNodes {
		if got, want := p.got.viewLoad(i), p.ref.viewLoad(i); got != want {
			return fmt.Errorf("load of node %d: %d, reference %d", i, got, want)
		}
	}
	return nil
}

// update builds an applySet operation from two bytes: the file (one past
// each end of the catalogue included), a version relative to the
// reference's (stale, equal, newer, far ahead) and a member list: a
// tombstone, one to three nodes (repeats possible), or one outside the
// cluster.
func (p *nativeStatePair) update(a, b byte) SetUpdate {
	f := cache.FileID(int(a%8) - 1) // -1 .. fuzzFiles
	var v uint64
	if f >= 0 && f < fuzzFiles {
		if cur := p.ref.sets[f]; cur != nil {
			v = cur.version
		}
	}
	switch a >> 3 & 3 {
	case 0:
		v-- // stale (wraps from 0: far ahead)
	case 2:
		v++
	case 3:
		v += uint64(a >> 5)
	}
	var nodes []int
	switch k := int(b & 3); {
	case b>>2&7 == 7:
		nodes = []int{[2]int{-1, fuzzNodes}[b>>5&1]}
	default:
		for i := range k {
			nodes = append(nodes, int(b>>(2+2*i))&3)
		}
	}
	return SetUpdate{File: f, Nodes: nodes, Version: v}
}

// FuzzNativeState drives the FileSets-backed replica and the map-based
// reference through the same operations and compares them after each. An
// operation is three bytes; the first picks it:
//
//	0: decide, with the second byte the file and who is alive and the
//	   third every node's load (2 bits each, around T = 2 and t = 1); the
//	   decisions and emitted updates must match
//	1: advance the clock 0-7 ms (ShrinkAfter is 2.5 ms)
//	2: applySet (see update); one naming a node twice must change nothing
//	   on the replica under test, and is not given to the reference, which
//	   stores it
//	3: evictNode, the returned updates compared sorted by file
func FuzzNativeState(f *testing.F) {
	f.Add([]byte{0, 0x10, 0x00, 0, 0x10, 0xff, 1, 3, 0, 0, 0x30, 0x00, 0, 0x20, 0x03, 1, 7, 0, 0, 0x11, 0x00})
	f.Add([]byte{2, 0x11, 0x09, 2, 0x11, 0x05, 0, 0xf1, 0x00, 3, 2, 0, 0, 0x01, 0x00, 2, 0x01, 0x00})
	f.Add([]byte{2, 0x12, 0x1e, 2, 0x02, 0x1e, 2, 0x1a, 0x1d, 2, 0x0a, 0x3c, 2, 0x07, 0x01, 2, 0x00, 0x01})
	f.Add([]byte{0, 0x13, 0x00, 0, 0x13, 0xff, 0, 0x03, 0x00, 1, 5, 0, 0, 0x13, 0xf0, 3, 1, 0, 0, 0x13, 0x00})
	f.Fuzz(checkNativeState)
}

// TestNativeStateAgainstReference runs FuzzNativeState's check on random
// operation streams, so every go test run covers more than the seeds.
func TestNativeStateAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	ops := make([]byte, 900)
	for range 300 {
		rng.Read(ops)
		checkNativeState(t, ops)
	}
}

func checkNativeState(t *testing.T, ops []byte) {
	p := newNativeStatePair()
	for step := 0; step+3 <= len(ops); step += 3 {
		a, b := ops[step+1], ops[step+2]
		switch ops[step] % 4 {
		case 0:
			file := cache.FileID(a % fuzzFiles)
			alive := func(i int) bool { return a>>(4+i)&1 == 1 }
			for i := range fuzzNodes {
				load := int(b >> (2 * i) & 3)
				if i == 0 {
					p.got.setLocalLoad(load)
					p.ref.setLocalLoad(load)
				} else {
					p.got.applyLoad(i, load)
					p.ref.applyLoad(i, load)
				}
			}
			svc, changed := p.got.decide(file, alive)
			refSvc, refChanged := p.ref.decide(file, alive)
			if svc != refSvc || (changed == nil) != (refChanged == nil) ||
				(changed != nil && !sameUpdates([]SetUpdate{*changed}, []SetUpdate{*refChanged})) {
				t.Fatalf("step %d: decide(%d) = %d, %+v; reference %d, %+v", step/3, file, svc, changed, refSvc, refChanged)
			}
		case 1:
			p.ms += int64(a % 8)
		case 2:
			u := p.update(a, b)
			if len(u.Nodes) != len(distinct(u.Nodes)) {
				before := p.got.exportSets()
				p.got.applySet(u)
				if after := p.got.exportSets(); !sameUpdates(after, before) {
					t.Fatalf("step %d: %+v with a repeated member changed %+v to %+v", step/3, u, before, after)
				}
				continue
			}
			p.got.applySet(u)
			p.ref.applySet(u)
		case 3:
			dead := int(a % fuzzNodes)
			got, want := sortedByFile(p.got.evictNode(dead)), sortedByFile(p.ref.evictNode(dead))
			if !sameUpdates(got, want) {
				t.Fatalf("step %d: evictNode(%d) = %+v, reference %+v", step/3, dead, got, want)
			}
		}
		if err := p.compare(); err != nil {
			t.Fatalf("step %d (op %d): %v", step/3, ops[step]%4, err)
		}
	}
}

// distinct returns the distinct members of nodes.
func distinct(nodes []int) []int {
	return slices.Compact(slices.Sorted(slices.Values(nodes)))
}

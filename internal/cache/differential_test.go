package cache

import (
	"container/list"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// listLRU is a reference LRU built on container/list — the implementation
// the intrusive cache replaced. The differential test drives both with the
// same randomized Zipf-like stream and demands identical observable
// behavior, event by event.
type listLRU struct {
	capacity int64
	used     int64
	order    *list.List
	items    map[FileID]*list.Element
	onEvict  func(id FileID, size int64)
}

type listEntry struct {
	id   FileID
	size int64
}

func newListLRU(capacity int64) *listLRU {
	return &listLRU{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[FileID]*list.Element),
	}
}

func (c *listLRU) access(id FileID, size int64) bool {
	if el, ok := c.items[id]; ok {
		c.order.MoveToFront(el)
		return true
	}
	if size > c.capacity {
		return false
	}
	for c.used+size > c.capacity {
		c.remove(c.order.Back())
	}
	c.items[id] = c.order.PushFront(listEntry{id: id, size: size})
	c.used += size
	return false
}

func (c *listLRU) evict(id FileID) bool {
	el, ok := c.items[id]
	if !ok {
		return false
	}
	c.remove(el)
	return true
}

func (c *listLRU) remove(el *list.Element) {
	e := el.Value.(listEntry)
	c.order.Remove(el)
	delete(c.items, e.id)
	c.used -= e.size
	if c.onEvict != nil {
		c.onEvict(e.id, e.size)
	}
}

func (c *listLRU) mostRecent(n int) []FileID {
	if n < 0 {
		n = 0
	}
	out := make([]FileID, 0, n)
	for el := c.order.Front(); el != nil && len(out) < n; el = el.Next() {
		out = append(out, el.Value.(listEntry).id)
	}
	return out
}

// zipfStream returns a skewed access stream: ids drawn Zipf-like over a
// catalog with per-file stable sizes, mimicking the paper's workloads.
func zipfStream(rng *rand.Rand, files, accesses int) ([]FileID, []int64) {
	z := rand.NewZipf(rng, 1.2, 1, uint64(files-1))
	sizes := make([]int64, files)
	for i := range sizes {
		sizes[i] = int64(rng.Intn(40<<10) + 512)
	}
	ids := make([]FileID, accesses)
	szs := make([]int64, accesses)
	for i := range ids {
		id := FileID(z.Uint64())
		ids[i] = id
		szs[i] = sizes[id]
	}
	return ids, szs
}

// diffPair is the intrusive LRU and the container/list reference driven in
// lock step. Every operation compares the observable behavior — result,
// byte accounting, eviction sequence — and then walks the intrusive
// structure's internal invariants.
type diffPair struct {
	t          *testing.T
	label      string
	step       int
	got        *LRU
	want       *listLRU
	gotEvicts  []FileID
	wantEvicts []FileID
}

func newDiffPair(t *testing.T, label string, capacity int64) *diffPair {
	d := &diffPair{t: t, label: label, got: NewLRU(capacity), want: newListLRU(capacity)}
	d.got.OnEvict = func(id FileID, size int64) { d.gotEvicts = append(d.gotEvicts, id) }
	d.want.onEvict = func(id FileID, size int64) { d.wantEvicts = append(d.wantEvicts, id) }
	return d
}

func (d *diffPair) access(id FileID, size int64) {
	d.t.Helper()
	if g, w := d.got.Access(id, size), d.want.access(id, size); g != w {
		d.t.Fatalf("%s step %d: Access(%d) = %v, reference %v", d.label, d.step, id, g, w)
	}
	d.check()
}

func (d *diffPair) evict(id FileID) {
	d.t.Helper()
	if g, w := d.got.Evict(id), d.want.evict(id); g != w {
		d.t.Fatalf("%s step %d: Evict(%d) = %v, reference %v", d.label, d.step, id, g, w)
	}
	d.check()
}

func (d *diffPair) check() {
	d.t.Helper()
	d.step++
	if d.got.Used() != d.want.used || d.got.Len() != len(d.want.items) {
		d.t.Fatalf("%s step %d: used/len %d/%d, reference %d/%d",
			d.label, d.step, d.got.Used(), d.got.Len(), d.want.used, len(d.want.items))
	}
	if !slices.Equal(d.gotEvicts, d.wantEvicts) {
		d.t.Fatalf("%s step %d: eviction sequences diverged (%d vs %d removals)",
			d.label, d.step, len(d.gotEvicts), len(d.wantEvicts))
	}
	// The sequences agree so far; only what comes next needs comparing.
	d.gotEvicts, d.wantEvicts = d.gotEvicts[:0], d.wantEvicts[:0]
	if err := d.got.checkInvariants(); err != nil {
		d.t.Fatalf("%s step %d: %v", d.label, d.step, err)
	}
}

// finish compares the complete recency order.
func (d *diffPair) finish() {
	d.t.Helper()
	g, w := d.got.MostRecent(d.got.Len()), d.want.mostRecent(len(d.want.items))
	if !slices.Equal(g, w) {
		d.t.Fatalf("%s: MostRecent order diverged\n got %v\nwant %v", d.label, g, w)
	}
}

// checkInvariants walks the whole structure: the recency list is a
// consistent doubly linked list of Len() entries, every one of them is
// reachable from exactly one bucket (the one its id hashes to), the free
// list is disjoint from the recency list, the two together account for
// every slot handed out, and the pages cover those slots with less than one
// page to spare.
func (c *LRU) checkInvariants() error {
	const (
		unseen = iota
		listed
		chained
		free
	)
	state := make([]byte, c.slots)
	if want := (int(c.slots) + pageSize - 1) / pageSize; len(c.pages) != want {
		return fmt.Errorf("%d pages for %d slots, want %d", len(c.pages), c.slots, want)
	}
	var used int64
	n, prev := 0, none
	for i := c.head; i != none; i = c.at(i).next {
		if i < 0 || i >= c.slots || state[i] != unseen {
			return fmt.Errorf("recency list revisits or leaves the pool at slot %d", i)
		}
		state[i] = listed
		if c.at(i).prev != prev {
			return fmt.Errorf("slot %d: prev = %d, want %d", i, c.at(i).prev, prev)
		}
		used += c.at(i).size
		prev = i
		n++
	}
	if c.tail != prev {
		return fmt.Errorf("tail = %d, want %d", c.tail, prev)
	}
	if n != c.Len() || used != c.used {
		return fmt.Errorf("recency list holds %d files / %d bytes, Len/Used say %d / %d", n, used, c.Len(), c.used)
	}
	if len(c.buckets)&(len(c.buckets)-1) != 0 || len(c.buckets) < max(minBuckets, n) {
		return fmt.Errorf("%d buckets for %d files", len(c.buckets), n)
	}
	inChains := 0
	for b, i := range c.buckets {
		for ; i != none; i = c.at(i).chain {
			if i < 0 || i >= c.slots || state[i] != listed {
				return fmt.Errorf("bucket %d chains slot %d, which is not a once-chained resident", b, i)
			}
			state[i] = chained
			if got := c.bucket(c.at(i).id); got != uint32(b) {
				return fmt.Errorf("file %d sits in bucket %d, hashes to %d", c.at(i).id, b, got)
			}
			inChains++
		}
	}
	if inChains != n {
		return fmt.Errorf("%d entries chained, %d resident", inChains, n)
	}
	frees := 0
	for i := c.freeHead; i != none; i = c.at(i).prev {
		if i < 0 || i >= c.slots || state[i] != unseen {
			return fmt.Errorf("free list reaches slot %d, which is resident or already free", i)
		}
		state[i] = free
		frees++
	}
	if n+frees != int(c.slots) {
		return fmt.Errorf("%d resident + %d free != %d slots handed out", n, frees, c.slots)
	}
	return nil
}

// TestDifferentialAgainstListLRU drives the intrusive LRU and the
// container/list reference with the same randomized Zipf stream —
// including explicit invalidations — and asserts identical hit/miss
// results, identical eviction sequences (via OnEvict), identical
// MostRecent order, and identical byte accounting at every step.
func TestDifferentialAgainstListLRU(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(rng.Intn(512<<10) + 32<<10)
		d := newDiffPair(t, fmt.Sprintf("seed %d", seed), capacity)
		ids, sizes := zipfStream(rng, 200, 4000)
		for i, id := range ids {
			if rng.Intn(16) == 0 {
				d.evict(FileID(rng.Intn(200)))
			}
			d.access(id, sizes[i])
		}
		d.finish()
	}
}

// TestDifferentialAcrossPagesAndDoublings is the same comparison on a
// stream shaped to exercise the storage: a ramp of distinct files that
// crosses several page boundaries and doubles the bucket array repeatedly,
// then churn that mixes capacity evictions with explicit Evicts aimed at
// the MRU entry, the LRU entry, the middle of a bucket chain and random
// files, then a drain and a second ramp over recycled slots.
func TestDifferentialAcrossPagesAndDoublings(t *testing.T) {
	const files = 3000
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		sizes := make([]int64, files)
		for i := range sizes {
			sizes[i] = int64(rng.Intn(8<<10) + 512)
		}
		// About 450 resident files of 4.6 KB: 8 pages, 6 doublings.
		d := newDiffPair(t, fmt.Sprintf("seed %d", seed), 2<<20)
		c := d.got

		for id := FileID(0); c.Evictions() == 0; id++ {
			d.access(id, sizes[id])
		}
		if len(c.pages) < 4 || len(c.buckets) < minBuckets<<3 {
			t.Fatalf("ramp ended at %d pages, %d buckets: the stream no longer exercises growth",
				len(c.pages), len(c.buckets))
		}

		var head, tail, mid int
		for i := 0; i < 6000; i++ {
			switch rng.Intn(12) {
			case 0:
				d.evict(c.at(c.head).id)
				head++
			case 1:
				d.evict(c.at(c.tail).id)
				tail++
			case 2:
				if id, ok := c.midChain(rng); ok {
					d.evict(id)
					mid++
				}
			case 3:
				d.evict(FileID(rng.Intn(files)))
			default:
				// Half re-references of the recent past, half fresh files.
				id := FileID(rng.Intn(files))
				if rng.Intn(2) == 0 {
					recent := c.MostRecent(64)
					id = recent[rng.Intn(len(recent))]
				}
				d.access(id, sizes[id])
			}
		}
		if head == 0 || tail == 0 || mid == 0 || c.Evictions() < 100 {
			t.Fatalf("churn evicted head %d, tail %d, mid-chain %d, capacity %d times: every kind must occur",
				head, tail, mid, c.Evictions())
		}

		// Drain to a handful of files, then refill over the free list: the
		// pages and the bucket array stay, the slots are recycled.
		pages, buckets := len(c.pages), len(c.buckets)
		for c.Len() > 5 {
			d.evict(c.at(c.tail).id)
		}
		for id := FileID(files - 1); c.Len() < 300; id-- {
			d.access(id, sizes[id])
		}
		if len(c.pages) != pages || len(c.buckets) != buckets {
			t.Fatalf("refill below the high-water mark grew storage: pages %d -> %d, buckets %d -> %d",
				pages, len(c.pages), buckets, len(c.buckets))
		}
		d.finish()
	}
}

// midChain returns a resident file that is neither first nor last in its
// bucket's chain, starting the search at a random bucket.
func (c *LRU) midChain(rng *rand.Rand) (FileID, bool) {
	start := rng.Intn(len(c.buckets))
	for k := range c.buckets {
		i := c.buckets[(start+k)%len(c.buckets)]
		if i == none {
			continue
		}
		if second := c.at(i).chain; second != none && c.at(second).chain != none {
			return c.at(second).id, true
		}
	}
	return 0, false
}

func TestEvictCountsAsInvalidationNotEviction(t *testing.T) {
	c := NewLRU(100)
	c.Access(1, 40)
	c.Access(2, 40)
	if !c.Evict(1) {
		t.Fatal("Evict(1) should remove a present file")
	}
	if c.Evictions() != 0 {
		t.Fatalf("Evictions = %d after explicit Evict, want 0", c.Evictions())
	}
	if c.Invalidations() != 1 {
		t.Fatalf("Invalidations = %d, want 1", c.Invalidations())
	}
	c.Access(3, 40)
	c.Access(4, 40) // capacity-evicts 2
	if c.Evictions() != 1 {
		t.Fatalf("Evictions = %d after capacity eviction, want 1", c.Evictions())
	}
	if c.Invalidations() != 1 {
		t.Fatalf("Invalidations = %d, want 1 still", c.Invalidations())
	}
	c.ResetStats()
	if c.Evictions() != 0 || c.Invalidations() != 0 {
		t.Fatal("ResetStats must zero both counters")
	}
}

// TestMostRecentClampsN pins the result and the allocation for every kind
// of n: the slice is sized by what the cache holds, not by what the caller
// asks for (MostRecent(math.MaxInt) used to panic in make).
func TestMostRecentClampsN(t *testing.T) {
	c := NewLRU(100)
	for id := FileID(1); id <= 3; id++ {
		c.Access(id, 10)
	}
	for _, tc := range []struct {
		n    int
		want []FileID
	}{
		{math.MinInt, []FileID{}},
		{-3, []FileID{}},
		{0, []FileID{}},
		{2, []FileID{3, 2}},
		{3, []FileID{3, 2, 1}},
		{4, []FileID{3, 2, 1}},
		{1 << 30, []FileID{3, 2, 1}},
		{math.MaxInt, []FileID{3, 2, 1}},
	} {
		got := c.MostRecent(tc.n)
		if got == nil || !slices.Equal(got, tc.want) {
			t.Errorf("MostRecent(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if cap(got) > c.Len() {
			t.Errorf("MostRecent(%d) allocated room for %d ids, cache holds %d", tc.n, cap(got), c.Len())
		}
	}
	if got := NewLRU(100).MostRecent(math.MaxInt); got == nil || len(got) != 0 {
		t.Errorf("MostRecent on an empty cache = %v, want empty non-nil", got)
	}
}

// TestPoolReuseKeepsOrder churns the cache through enough insert/evict
// cycles that every pooled entry slot is recycled, then checks order again.
func TestPoolReuseKeepsOrder(t *testing.T) {
	c := NewLRU(100)
	for round := 0; round < 50; round++ {
		base := FileID(round * 10)
		for i := FileID(0); i < 10; i++ {
			c.Access(base+i, 10)
		}
	}
	got := c.MostRecent(3)
	want := []FileID{499, 498, 497}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("MostRecent after churn = %v, want %v", got, want)
	}
	if c.Used() != 100 || c.Len() != 10 {
		t.Fatalf("Used/Len = %d/%d, want 100/10", c.Used(), c.Len())
	}
}

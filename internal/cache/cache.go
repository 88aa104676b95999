// Package cache implements the per-node main-memory file cache of the
// simulated cluster: a byte-accounted LRU over whole files, as assumed by
// both the traditional and the locality-conscious servers in the paper.
//
// The cache does not store file contents (the simulator only needs hits and
// misses); it tracks identities and sizes, charges capacity in bytes, and
// keeps hit/miss/eviction statistics.
//
// The recency list and the id index are both intrusive: entries live in
// fixed 64-entry pages that are appended on demand and never copied, linked
// by int32 prev/next indices with a free list, and each carries the chain
// link of its hash bucket; the pages hold the bucket heads too, grown by
// linear hashing one split per insert. Hits, inserts and evictions move no
// memory and allocate nothing once the pages have grown to the cache's
// high-water residency, 24 bytes per file rounded up to one page
// (DESIGN.md §4). Under the Zipf-like streams of the paper this is the
// hottest data structure in the simulator after the event calendar.
//
// An entry stores a file's size in 32 bits, so a file of 4 GiB or more is
// served uncached and counted as a miss, like one larger than the cache.
package cache

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/stats"
)

// FileID identifies a file in a trace's catalog (its popularity-agnostic
// index).
type FileID int32

// none marks the absence of a neighbor, chain successor or free entry.
const none int32 = -1

// A page of 64 entries and 64 bucket heads is 1,536 B, a runtime size class:
// the expected slack, half a page per cache, is an eighth of the ~260 files
// a cache of the N=1024 runs holds, and a large cache appends one per 64.
const (
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// entry is one resident file: a node of the recency list and of its hash
// bucket's chain at once. 20 bytes, pointer-free.
type entry struct {
	size  uint32
	id    FileID
	prev  int32 // toward the MRU end; free-list link while unused
	next  int32 // toward the LRU end
	chain int32 // next entry in the same bucket
}

// page p holds entries and bucket heads 64p to 64p+63.
type page struct {
	entries [pageSize]entry
	heads   [pageSize]int32
}

// LRU is a least-recently-used file cache with a byte capacity.
type LRU struct {
	capacity int64
	used     int64
	pages    []*page
	slots    int32 // entries handed out so far; the next fresh index
	live     int32 // resident files
	freeHead int32
	head     int32 // most recently used, none when empty
	tail     int32 // least recently used, none when empty

	// Buckets [0, nb) are in use, the heads past them unset; mask is the
	// least all-ones mask ≥ nb, so a masked hash is a bucket in use or one
	// not yet split off (bucket).
	nb   uint32
	mask uint32

	hits          stats.Ratio
	evictions     uint64 // capacity evictions only
	invalidations uint64 // explicit Evict calls that removed a file

	// m mirrors the statistics onto shared observability counters; the
	// zero value (all nil) is the disabled, no-op path.
	m Metrics

	// OnEvict, when non-nil, is called for every removal — capacity
	// evictions and explicit invalidations alike.
	OnEvict func(id FileID, size int64)
}

// Metrics is an optional set of observability counters the cache mirrors
// its statistics onto, on top of the per-cache counters that ResetStats
// zeroes: several caches may share one set, accumulating cluster-wide
// totals. Nil fields are no-ops, so a zero Metrics disables mirroring at
// the cost of one predictable branch per event.
type Metrics struct {
	Hits          *obs.Counter
	Misses        *obs.Counter
	Evictions     *obs.Counter
	Invalidations *obs.Counter
}

// SetMetrics attaches (or, with the zero Metrics, detaches) observability
// counters. Unlike the built-in statistics, attached counters are never
// reset by ResetStats.
func (c *LRU) SetMetrics(m Metrics) { c.m = m }

// NewLRU returns an empty cache holding at most capacity bytes.
func NewLRU(capacity int64) *LRU {
	if capacity < 0 {
		panic(fmt.Sprintf("cache: negative capacity %d", capacity))
	}
	c := &LRU{
		capacity: capacity,
		freeHead: none,
		head:     none,
		tail:     none,
		pages:    []*page{new(page)},
		nb:       1,
		mask:     1,
	}
	c.pages[0].heads[0] = none
	return c
}

// Capacity returns the configured byte capacity.
func (c *LRU) Capacity() int64 { return c.capacity }

// Used returns the bytes currently cached.
func (c *LRU) Used() int64 { return c.used }

// Len returns the number of cached files.
func (c *LRU) Len() int { return int(c.live) }

// Contains reports whether the file is cached, without touching LRU order
// or statistics (find may reorder a hash chain, which decides no result).
func (c *LRU) Contains(id FileID) bool {
	i, _ := c.find(id)
	return i != none
}

// Access simulates serving the file: on a hit the file is refreshed to
// most-recently-used and true is returned; on a miss the file is fetched
// into the cache (evicting LRU entries as needed) and false is returned.
// Files larger than the whole cache or of 4 GiB or more are never cached.
//
// Statistics are recorded either way; use Warm for statistics-free priming.
func (c *LRU) Access(id FileID, size int64) bool {
	hit := c.touch(id, size)
	c.hits.Observe(hit)
	if hit {
		c.m.Hits.Inc()
	} else {
		c.m.Misses.Inc()
	}
	return hit
}

// Warm performs the same state change as Access without recording
// statistics, for cache warm-up runs.
func (c *LRU) Warm(id FileID, size int64) bool {
	return c.touch(id, size)
}

func (c *LRU) touch(id FileID, size int64) bool {
	if size < 0 {
		panic(fmt.Sprintf("cache: negative size %d for file %d", size, id))
	}
	if i, e := c.find(id); i != none {
		if c.head != i {
			c.unlink(e)
			c.pushFront(i, e)
		}
		return true
	}
	if size > c.capacity || size >= 1<<32 {
		return false // uncacheable; served straight from disk
	}
	c.insert(id, uint32(size))
	return false
}

// insert caches the non-resident file id as most recently used, evicting
// from the LRU end until it fits.
func (c *LRU) insert(id FileID, size uint32) {
	for c.used+int64(size) > c.capacity {
		c.evictOldest()
	}
	i := c.alloc()
	e := c.at(i)
	e.id = id
	e.size = size
	c.pushFront(i, e)
	c.used += int64(size)
	b := c.headOf(c.bucket(id))
	e.chain, *b = *b, i
	if c.live++; uint32(c.live) > c.nb {
		c.split()
	}
}

// Evict removes the file if cached, returning whether it was present. The
// OnEvict callback fires as for capacity evictions, but the removal is
// counted as an invalidation, not an eviction: Evictions measures capacity
// pressure only.
func (c *LRU) Evict(id FileID) bool {
	i, e := c.find(id)
	if i == none {
		return false
	}
	c.invalidations++
	c.m.Invalidations.Inc()
	c.remove(i, e)
	return true
}

func (c *LRU) evictOldest() {
	if c.tail == none {
		panic("cache: eviction from empty cache (size accounting bug)")
	}
	c.evictions++
	c.m.Evictions.Inc()
	c.remove(c.tail, c.at(c.tail))
}

// remove unchains and unlinks entry i (= *e), frees its slot and fires
// OnEvict; the caller has counted it as an eviction or an invalidation.
func (c *LRU) remove(i int32, e *entry) {
	id, size := e.id, int64(e.size)
	link := c.headOf(c.bucket(id))
	for *link != i {
		link = &c.at(*link).chain
	}
	*link = e.chain
	c.live--
	c.unlink(e)
	e.prev = c.freeHead
	c.freeHead = i
	c.used -= size
	if c.OnEvict != nil {
		c.OnEvict(id, size)
	}
}

// at returns entry i and headOf the head of bucket b's chain. Pages never
// move, so the pointers stay valid across alloc.
func (c *LRU) at(i int32) *entry { return &c.pages[i>>pageBits].entries[i&pageMask] }

func (c *LRU) headOf(b uint32) *int32 { return &c.pages[b>>pageBits].heads[b&pageMask] }

// alloc takes an entry slot from the free list, appending a page when the
// list is empty and every page is handed out.
func (c *LRU) alloc() int32 {
	if c.freeHead != none {
		i := c.freeHead
		c.freeHead = c.at(i).prev
		return i
	}
	i := c.slots
	if int(i>>pageBits) == len(c.pages) {
		c.pages = append(c.pages, new(page))
	}
	c.slots++
	return i
}

// bucket returns the chain id hashes to: the high half of a Fibonacci
// multiply spreads the sequential ids of a rank-ordered catalog, and a
// bucket not yet split off leaves its files in the one it splits from.
func (c *LRU) bucket(id FileID) uint32 {
	b := uint32((uint64(uint32(id))*0x9e3779b97f4a7c15)>>32) & c.mask
	if b >= c.nb {
		b &= c.mask >> 1
	}
	return b
}

// find returns the slot and the entry of the resident file id, or none. It
// moves what it finds to the head of its chain, which keeps the benchmark's
// lookups near one visit each (DESIGN.md §4); chain order decides no result.
func (c *LRU) find(id FileID) (int32, *entry) {
	head := c.headOf(c.bucket(id))
	for link := head; *link != none; {
		i := *link
		e := c.at(i)
		if e.id == id {
			if link != head {
				*link, e.chain, *head = e.chain, *head, i
			}
			return i, e
		}
		link = &e.chain
	}
	return none, nil
}

// split opens bucket nb and moves into it, in chain order, the files of the
// bucket it splits from (nb less its top mask bit) that now hash to it: one
// chain's work per insert, and nb < slots, so its head is on a page.
func (c *LRU) split() {
	from, to := c.headOf(c.nb&(c.mask>>1)), c.headOf(c.nb)
	c.nb++
	for i := *from; i != none; {
		e := c.at(i)
		if c.bucket(e.id) != c.nb-1 {
			*from, from = i, &e.chain
		} else {
			*to, to = i, &e.chain
		}
		i = e.chain
	}
	*from, *to = none, none
	c.mask |= c.nb // gains a bit when nb reaches a power of two
}

// pushFront links entry i (= *e) in as the most recently used.
func (c *LRU) pushFront(i int32, e *entry) {
	e.prev = none
	e.next = c.head
	if c.head != none {
		c.at(c.head).prev = i
	}
	c.head = i
	if c.tail == none {
		c.tail = i
	}
}

// unlink removes entry *e from the recency list without freeing its slot.
func (c *LRU) unlink(e *entry) {
	if e.prev != none {
		c.at(e.prev).next = e.next
	} else {
		c.head = e.next
	}
	if e.next != none {
		c.at(e.next).prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// HitRate returns the hit fraction since the last ResetStats.
func (c *LRU) HitRate() float64 { return c.hits.Value() }

// Stats returns the raw hit/total counters.
func (c *LRU) Stats() stats.Ratio { return c.hits }

// Evictions returns the number of capacity evictions since the last
// ResetStats; explicit Evict calls are counted by Invalidations.
func (c *LRU) Evictions() uint64 { return c.evictions }

// Invalidations returns the number of files removed by explicit Evict calls
// since the last ResetStats.
func (c *LRU) Invalidations() uint64 { return c.invalidations }

// ResetStats zeroes hit/miss/eviction counters, preserving cache contents;
// call it at the end of warm-up.
func (c *LRU) ResetStats() {
	c.hits = stats.Ratio{}
	c.evictions = 0
	c.invalidations = 0
}

// MostRecent returns up to n most-recently-used file ids, for diagnostics.
// A non-positive n yields an empty slice; an n beyond Len() yields them all.
func (c *LRU) MostRecent(n int) []FileID {
	n = max(0, min(n, c.Len()))
	out := make([]FileID, 0, n)
	for i := c.head; len(out) < n; {
		e := c.at(i)
		out = append(out, e.id)
		i = e.next
	}
	return out
}

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
// by int32 prev/next indices with a free list, and each entry carries the
// chain link of its hash bucket. Hits, inserts, and evictions move no memory
// and allocate nothing once the pages have grown to the cache's high-water
// residency; a cache's footprint is that residency rounded up to one page
// plus 4-8 bytes of bucket heads per file (DESIGN.md §4). Under the
// Zipf-like streams of the paper this is the hottest data structure in the
// simulator after the event calendar.
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

// Entries are addressed pages[i>>pageBits][i&pageMask]. A page of 64 entries
// is 1,536 B, exactly a runtime size class, so nothing is lost to rounding;
// the expected slack of half a page per cache is an eighth of what a cache
// of the N=1024 runs holds (~260 files), and a large cache still appends a
// page only once per 64 first-time inserts.
const (
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// minBuckets keeps the bucket array of a near-empty cache one half cache
// line wide instead of degenerate.
const minBuckets = 8

// entry is one resident file: a node of the recency list and of its hash
// bucket's chain at once. 24 bytes, pointer-free.
type entry struct {
	size  int64
	id    FileID
	prev  int32 // toward the MRU end; free-list link while unused
	next  int32 // toward the LRU end
	chain int32 // next entry in the same bucket
}

// LRU is a least-recently-used file cache with a byte capacity.
type LRU struct {
	capacity int64
	used     int64
	pages    []*[pageSize]entry
	slots    int32 // entries handed out so far; the next fresh index
	live     int32 // resident files
	freeHead int32
	head     int32 // most recently used, none when empty
	tail     int32 // least recently used, none when empty

	// buckets[h] heads the chain of resident entries whose id hashes to h.
	// Its length is a power of two, doubled when live would exceed it.
	buckets []int32
	shift   uint // 64 - log2(len(buckets)), for multiply-shift hashing

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
	}
	c.setBuckets(minBuckets)
	return c
}

// Capacity returns the configured byte capacity.
func (c *LRU) Capacity() int64 { return c.capacity }

// Used returns the bytes currently cached.
func (c *LRU) Used() int64 { return c.used }

// Len returns the number of cached files.
func (c *LRU) Len() int { return int(c.live) }

// Contains reports whether the file is cached, without touching LRU order
// or statistics.
func (c *LRU) Contains(id FileID) bool {
	i, _ := c.find(id)
	return i != none
}

// Access simulates serving the file: on a hit the file is refreshed to
// most-recently-used and true is returned; on a miss the file is fetched
// into the cache (evicting LRU entries as needed) and false is returned.
// Files larger than the whole cache are served but never cached.
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
	if size > c.capacity {
		return false // uncacheable; served straight from disk
	}
	c.insert(id, size)
	return false
}

// insert caches the non-resident file id as most recently used, evicting
// from the LRU end until it fits.
func (c *LRU) insert(id FileID, size int64) {
	for c.used+size > c.capacity {
		c.evictOldest()
	}
	i := c.alloc()
	e := c.at(i)
	e.id = id
	e.size = size
	// Index before linking: a bucket doubling re-chains whatever the recency
	// list holds, so an entry linked first would be chained twice.
	c.index(i, e)
	c.pushFront(i, e)
	c.used += size
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

// remove unlinks entry i (= *e), releases its slot, and fires OnEvict. The
// caller has already counted the removal as an eviction or an invalidation.
func (c *LRU) remove(i int32, e *entry) {
	id, size := e.id, e.size
	c.unindex(i, e)
	c.unlink(e)
	e.prev = c.freeHead
	c.freeHead = i
	c.used -= size
	if c.OnEvict != nil {
		c.OnEvict(id, size)
	}
}

// at returns entry i. Pages never move, so the pointer stays valid across
// alloc.
func (c *LRU) at(i int32) *entry {
	return &c.pages[i>>pageBits][i&pageMask]
}

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
		c.pages = append(c.pages, new([pageSize]entry))
	}
	c.slots++
	return i
}

// bucket returns the chain id hashes to: a Fibonacci multiply-shift hash,
// which spreads the sequential file ids of a rank-ordered catalog across
// the array instead of clustering them.
func (c *LRU) bucket(id FileID) uint32 {
	return uint32((uint64(uint32(id)) * 0x9e3779b97f4a7c15) >> c.shift)
}

// find returns the slot and the entry of the resident file id, or none.
func (c *LRU) find(id FileID) (int32, *entry) {
	for i := c.buckets[c.bucket(id)]; i != none; {
		e := c.at(i)
		if e.id == id {
			return i, e
		}
		i = e.chain
	}
	return none, nil
}

// index chains entry i (= *e), whose id is set and not resident, into its
// bucket, doubling the bucket array first when the load would exceed 1. The
// rehash walks the recency list from its cold end, so that the most
// recently used file of every chain ends up at its head.
func (c *LRU) index(i int32, e *entry) {
	if int(c.live) == len(c.buckets) {
		c.setBuckets(2 * len(c.buckets))
		for j := c.tail; j != none; {
			r := c.at(j)
			c.chainIn(j, r)
			j = r.prev
		}
	}
	c.chainIn(i, e)
	c.live++
}

func (c *LRU) chainIn(i int32, e *entry) {
	b := &c.buckets[c.bucket(e.id)]
	e.chain = *b
	*b = i
}

// unindex takes the resident entry i (= *e) out of its bucket's chain.
func (c *LRU) unindex(i int32, e *entry) {
	link := &c.buckets[c.bucket(e.id)]
	for *link != i {
		link = &c.at(*link).chain
	}
	*link = e.chain
	c.live--
}

// setBuckets installs an empty bucket array of n heads, n a power of two.
func (c *LRU) setBuckets(n int) {
	c.buckets = make([]int32, n)
	for i := range c.buckets {
		c.buckets[i] = none
	}
	c.shift = 64
	for ; n > 1; n >>= 1 {
		c.shift--
	}
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

package cache

import (
	"math"
	"runtime"
	"testing"
)

// allocatedBytes returns what fn allocates, garbage included (cumulative
// TotalAlloc, which no collection lowers). TotalAlloc counts the whole
// process, so whatever else runs meanwhile — the runtime's background
// work, another test's leftovers — can only add to a reading: fn runs
// after a collection with GOMAXPROCS(1), five times, and the fewest bytes
// any run allocated is the answer.
func allocatedBytes(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for range 5 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestFillAllocatesResidencyPlusOnePage is the storage's memory contract:
// building a cache and filling it to n resident files allocates, growth
// garbage included, at most
//
//	24·(n + 64)   pages: the residency rounded up to one page of 64 20-byte
//	              entries and their 64 4-byte bucket heads
//	+ 32·⌈n/64⌉   every table of page pointers the appends went through
//	              (8 B a pointer, the final one < 2 pointers a page, the
//	              discarded ones sum to less than it)
//	+ 256         the LRU struct
//
// bytes. Linear hashing grows the index inside the pages, so there is no
// bucket array and no rehash garbage; the slice-plus-hash-table storage
// this replaced allocated 100-200 bytes per file on the way up (DESIGN.md
// §4). n = 36,000 is clarknet's catalogue, which one node caches whole at
// N = 1.
func TestFillAllocatesResidencyPlusOnePage(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 300, 6000, 36_000} {
		var c *LRU
		got := allocatedBytes(func() {
			c = NewLRU(int64(n))
			for id := 0; id < n; id++ {
				c.Access(FileID(id), 1)
			}
		})
		if c.Len() != n || c.Evictions() != 0 {
			t.Fatalf("n=%d: cache holds %d files after %d evictions", n, c.Len(), c.Evictions())
		}
		pages := (n + pageSize - 1) / pageSize
		budget := uint64(24*(n+pageSize) + 32*pages + 256)
		if got > budget {
			t.Errorf("n=%d: filling allocated %d B, budget %d B", n, got, budget)
		}
		t.Logf("n=%d: %d B allocated (%.1f B/file), budget %d B", n, got, float64(got)/float64(n), budget)
	}
}

// TestSteadyStateAllocatesNothing churns a full cache — hits, inserts that
// evict, explicit invalidations and their re-inserts — below its high-water
// residency: every slot comes off the free list and the table never splits,
// so nothing is allocated.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	const resident = 1000
	c := NewLRU(resident)
	next := FileID(0)
	for ; c.Evictions() < resident; next++ {
		c.Access(next, 1)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			c.Access(next, 1)           // miss: evicts the LRU file
			c.Access(next-FileID(i), 1) // hit: refresh
			next++
		}
		c.Evict(next - 7)
		c.Access(next-7, 1) // re-insert into the freed slot
		if c.Len() != resident {
			t.Fatalf("cache holds %d files, want %d", c.Len(), resident)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state churn allocates %.1f times per round, want 0", allocs)
	}
}

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
//	24·(n + 64)   entries: the residency rounded up to one 64-entry page
//	+ 8·2n        every bucket array the doubling went through (4 B heads,
//	              final array < 2n, the discarded ones sum to less than it)
//	+ 24·⌈n/64⌉   the append-grown table of page pointers
//	+ 256         the LRU struct and the 8-head initial bucket array
//
// bytes. The slice-plus-hash-table storage this replaced allocated 100-200
// bytes per file on the way up (DESIGN.md §4).
func TestFillAllocatesResidencyPlusOnePage(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 300, 6000} {
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
		budget := uint64(24*(n+pageSize) + 8*2*n + 24*pages + 256)
		if got > budget {
			t.Errorf("n=%d: filling allocated %d B, budget %d B", n, got, budget)
		}
		t.Logf("n=%d: %d B allocated (%.1f B/file), budget %d B", n, got, float64(got)/float64(n), budget)
	}
}

// TestSteadyStateAllocatesNothing churns a full cache — hits, inserts that
// evict, explicit invalidations and their re-inserts — below its high-water
// residency: every slot comes off the free list and the bucket array never
// grows, so nothing is allocated.
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

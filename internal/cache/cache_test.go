package cache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMissThenHit(t *testing.T) {
	c := NewLRU(100)
	if c.Access(1, 40) {
		t.Fatal("first access must miss")
	}
	if !c.Access(1, 40) {
		t.Fatal("second access must hit")
	}
	if c.Used() != 40 || c.Len() != 1 {
		t.Fatalf("Used/Len = %d/%d, want 40/1", c.Used(), c.Len())
	}
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", got)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(100)
	c.Access(1, 40)
	c.Access(2, 40)
	c.Access(1, 40) // refresh 1; now 2 is oldest
	c.Access(3, 40) // evicts 2
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Fatalf("contents wrong: 1=%v 2=%v 3=%v",
			c.Contains(1), c.Contains(2), c.Contains(3))
	}
	if c.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Evictions())
	}
}

func TestEvictionCallback(t *testing.T) {
	c := NewLRU(50)
	var evicted []FileID
	c.OnEvict = func(id FileID, size int64) { evicted = append(evicted, id) }
	c.Access(1, 30)
	c.Access(2, 30) // evicts 1
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted = %v, want [1]", evicted)
	}
}

func TestOversizeFileNeverCached(t *testing.T) {
	c := NewLRU(100)
	c.Access(1, 50)
	if c.Access(2, 1000) {
		t.Fatal("oversize access must miss")
	}
	if c.Contains(2) {
		t.Fatal("oversize file must not be cached")
	}
	if !c.Contains(1) {
		t.Fatal("oversize file must not evict others")
	}
}

// TestFileOf4GiBNeverCached pins the 32-bit entry size: on a cache big
// enough to hold either, a file of 2^32 − 1 bytes is cached and a file of
// 2^32 is served uncached, counted as a miss every time, and leaves the
// cache as it was.
func TestFileOf4GiBNeverCached(t *testing.T) {
	c := NewLRU(8 << 30)
	if c.Access(1, math.MaxUint32) || !c.Access(1, math.MaxUint32) {
		t.Fatal("a file of 2^32 - 1 bytes must miss once, then hit")
	}
	if c.Used() != math.MaxUint32 || c.Len() != 1 {
		t.Fatalf("Used/Len = %d/%d, want %d/1", c.Used(), c.Len(), uint32(math.MaxUint32))
	}
	for range 2 {
		if c.Access(2, 1<<32) || c.Warm(2, 1<<32) {
			t.Fatal("a file of 2^32 bytes must miss")
		}
	}
	if c.Contains(2) || c.Used() != math.MaxUint32 || c.Len() != 1 || !c.Contains(1) {
		t.Fatalf("a 2^32-byte file changed the cache: Used/Len = %d/%d", c.Used(), c.Len())
	}
	if got := c.Stats(); got.Hits != 1 || got.Total != 4 {
		t.Fatalf("Stats = %+v, want 1 hit of 4 accesses", got)
	}
}

func TestExplicitEvict(t *testing.T) {
	c := NewLRU(100)
	c.Access(1, 10)
	if !c.Evict(1) {
		t.Fatal("Evict of present file must return true")
	}
	if c.Evict(1) {
		t.Fatal("Evict of absent file must return false")
	}
	if c.Used() != 0 {
		t.Fatalf("Used = %d after evict", c.Used())
	}
}

func TestWarmDoesNotRecordStats(t *testing.T) {
	c := NewLRU(100)
	c.Warm(1, 40)
	if c.Stats().Total != 0 {
		t.Fatal("Warm must not record statistics")
	}
	if !c.Access(1, 40) {
		t.Fatal("warmed file must hit")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := NewLRU(100)
	c.Access(1, 40)
	c.ResetStats()
	if c.Stats().Total != 0 || c.Evictions() != 0 {
		t.Fatal("ResetStats must zero counters")
	}
	if !c.Contains(1) {
		t.Fatal("ResetStats must keep contents")
	}
}

func TestMostRecent(t *testing.T) {
	c := NewLRU(1000)
	c.Access(1, 10)
	c.Access(2, 10)
	c.Access(3, 10)
	got := c.MostRecent(2)
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Fatalf("MostRecent = %v, want [3 2]", got)
	}
}

func TestZeroCapacity(t *testing.T) {
	c := NewLRU(0)
	if c.Access(1, 10) {
		t.Fatal("zero-capacity cache must always miss")
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache must stay empty")
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLRU(-1) did not panic")
		}
	}()
	NewLRU(-1)
}

func TestNegativeSizePanics(t *testing.T) {
	c := NewLRU(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Access with negative size did not panic")
		}
	}()
	c.Access(1, -5)
}

// Property: used bytes never exceed capacity, never go negative, and always
// equal the sum of the sizes of resident files.
func TestPropertyCapacityInvariant(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewLRU(1000)
		sizes := make(map[FileID]int64)
		for i := 0; i < int(n)+50; i++ {
			id := FileID(rng.Intn(40))
			size, ok := sizes[id]
			if !ok {
				size = int64(rng.Intn(300) + 1)
				sizes[id] = size
			}
			c.Access(id, size)
			if c.Used() > c.Capacity() || c.Used() < 0 {
				return false
			}
		}
		var sum int64
		for id, size := range sizes {
			if c.Contains(id) {
				sum += size
			}
		}
		return sum == c.Used()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache behaves exactly like a reference model (slice-based
// LRU) for arbitrary access sequences.
func TestPropertyMatchesReferenceModel(t *testing.T) {
	type ref struct {
		order []FileID // front = MRU
		sizes map[FileID]int64
		cap   int64
	}
	refAccess := func(r *ref, id FileID, size int64) bool {
		for i, v := range r.order {
			if v == id {
				r.order = append(r.order[:i], r.order[i+1:]...)
				r.order = append([]FileID{id}, r.order...)
				return true
			}
		}
		if size > r.cap {
			return false
		}
		used := func() int64 {
			var u int64
			for _, v := range r.order {
				u += r.sizes[v]
			}
			return u
		}
		for used()+size > r.cap {
			r.order = r.order[:len(r.order)-1]
		}
		r.sizes[id] = size
		r.order = append([]FileID{id}, r.order...)
		return false
	}

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewLRU(500)
		r := &ref{sizes: make(map[FileID]int64), cap: 500}
		catalog := make(map[FileID]int64)
		for i := 0; i < 300; i++ {
			id := FileID(rng.Intn(25))
			size, ok := catalog[id]
			if !ok {
				size = int64(rng.Intn(200) + 1)
				catalog[id] = size
			}
			if c.Access(id, size) != refAccess(r, id, size) {
				return false
			}
			if c.Len() != len(r.order) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccess(b *testing.B) {
	c := NewLRU(32 << 20)
	rng := rand.New(rand.NewSource(1))
	ids := make([]FileID, 10000)
	sizes := make([]int64, 10000)
	for i := range ids {
		ids[i] = FileID(rng.Intn(5000))
		sizes[i] = int64(rng.Intn(100000) + 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ids)
		c.Access(ids[j], sizes[j])
	}
}

package cache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReuseDistanceBasics(t *testing.T) {
	b := NewCurveBuilder(16)
	// A(10) B(20) A: A's reuse distance = 20 + 10 = 30.
	b.Add(1, 10)
	b.Add(2, 20)
	b.Add(1, 10)
	c := b.Curve()
	if c.Measured() != 3 {
		t.Fatalf("measured = %d, want 3", c.Measured())
	}
	// Capacity 30 fits the re-reference; 29 does not. Cold accesses always
	// miss.
	if got := c.HitRate(30); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("HitRate(30) = %v, want 1/3", got)
	}
	if got := c.HitRate(29); got != 0 {
		t.Fatalf("HitRate(29) = %v, want 0", got)
	}
}

func TestReuseWarmSkipsMeasurement(t *testing.T) {
	b := NewCurveBuilder(16)
	b.Warm(1, 10)
	b.Add(1, 10) // distance 10, measured
	c := b.Curve()
	if c.Measured() != 1 {
		t.Fatalf("measured = %d, want 1", c.Measured())
	}
	if c.HitRate(10) != 1 {
		t.Fatalf("HitRate(10) = %v, want 1 (warmed)", c.HitRate(10))
	}
}

func TestReuseCurveMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewCurveBuilder(64)
	for i := 0; i < 2000; i++ {
		b.Add(FileID(rng.Intn(50)), int64(rng.Intn(100)+1))
	}
	c := b.Curve()
	last := -1.0
	for cap := int64(0); cap <= 3000; cap += 100 {
		h := c.HitRate(cap)
		if h < last {
			t.Fatalf("hit rate decreased at capacity %d", cap)
		}
		last = h
	}
}

func TestReuseBuilderGrows(t *testing.T) {
	b := NewCurveBuilder(16) // force several growth cycles
	for i := 0; i < 500; i++ {
		b.Add(FileID(i%7), 10)
	}
	c := b.Curve()
	// With 7 files of 10 bytes, every re-reference fits in 70 bytes.
	if got := c.HitRate(70); math.Abs(got-float64(500-7)/500) > 1e-12 {
		t.Fatalf("HitRate(70) = %v", got)
	}
}

// Property: for any access stream (file sizes below the capacities probed),
// the one-pass curve agrees exactly with a direct LRU simulation at every
// probed capacity, including warm-up handling.
func TestPropertyCurveMatchesLRU(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nfiles := 5 + rng.Intn(40)
		sizes := make([]int64, nfiles)
		for i := range sizes {
			sizes[i] = int64(rng.Intn(200) + 1)
		}
		accesses := make([]FileID, 400)
		for i := range accesses {
			accesses[i] = FileID(rng.Intn(nfiles))
		}
		warm := rng.Intn(200)

		builder := NewCurveBuilder(len(accesses))
		for i, id := range accesses {
			if i < warm {
				builder.Warm(id, sizes[id])
			} else {
				builder.Add(id, sizes[id])
			}
		}
		curve := builder.Curve()

		for _, capacity := range []int64{250, 500, 1000, 4000} {
			lru := NewLRU(capacity)
			for i, id := range accesses {
				if i < warm {
					lru.Warm(id, sizes[id])
				} else {
					lru.Access(id, sizes[id])
				}
			}
			if math.Abs(curve.HitRate(capacity)-lru.HitRate()) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// A file of 4 GiB or more misses at every capacity, as in the LRU, and
// leaves the reuse distances of the files around it as they were.
func TestCurveMatchesLRUWithFileOf4GiB(t *testing.T) {
	const capacity = 8 << 30
	sizes := []int64{1 << 32, 3 << 30, 1<<32 - 1, 1 << 20}
	accesses := []FileID{0, 1, 2, 0, 3, 1, 0, 2, 3, 0, 1, 2}
	builder := NewCurveBuilder(len(accesses))
	lru := NewLRU(capacity)
	for _, id := range accesses {
		builder.Add(id, sizes[id])
		lru.Access(id, sizes[id])
	}
	// Without the rule in the builder, file 0 would sit between file 2's
	// accesses and push its reuse distance past 8 GiB.
	curve := builder.Curve()
	if got, want := curve.HitRate(capacity), lru.HitRate(); got != want {
		t.Fatalf("curve HitRate(8 GiB) = %v, LRU = %v", got, want)
	}
	if got, want := lru.HitRate(), 5.0/12; got != want {
		t.Fatalf("LRU hit rate %v, want %v", got, want)
	}
}

func TestReuseEmptyCurve(t *testing.T) {
	c := NewCurveBuilder(4).Curve()
	if c.HitRate(1000) != 0 || c.MissRate(1000) != 1 {
		t.Fatal("empty curve should report zero hits")
	}
}

func TestReuseNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	NewCurveBuilder(4).Add(1, -1)
}

func BenchmarkCurveBuilder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ids := make([]FileID, 100000)
	sizes := make([]int64, 100000)
	for i := range ids {
		ids[i] = FileID(rng.Intn(5000))
		sizes[i] = int64(rng.Intn(50000) + 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb := NewCurveBuilder(len(ids))
		for j, id := range ids {
			cb.Add(id, sizes[j])
		}
		cb.Curve()
	}
}

// refCurveDistances is a quadratic reference Mattson implementation: reuse
// distance of an access is the total size of distinct files touched since
// the previous access to the same file, inclusive.
func refCurveDistances(ids []FileID, sizes []int64) []int64 {
	var out []int64
	last := map[FileID]int{}
	for i, id := range ids {
		if p, ok := last[id]; ok {
			seen := map[FileID]bool{}
			var d int64
			for j := p + 1; j < i; j++ {
				if !seen[ids[j]] && ids[j] != id {
					seen[ids[j]] = true
					d += sizes[j]
				}
			}
			out = append(out, d+sizes[p])
		}
		last[id] = i
	}
	return out
}

// TestReuseCompaction forces many compaction cycles — a tiny builder over a
// long stream with few distinct files — and checks every recorded distance
// against the quadratic reference. This pins the O(distinct files) memory
// bound's exactness claim: renumbering live positions preserves all suffix
// sums.
func TestReuseCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 6000
	ids := make([]FileID, n)
	sizes := make([]int64, n)
	fileSize := map[FileID]int64{}
	for i := range ids {
		// Mixed skew: a hot set of 10 plus a long tail of 300, so prior
		// positions span the whole window when compaction hits.
		var id FileID
		if rng.Intn(2) == 0 {
			id = FileID(rng.Intn(10))
		} else {
			id = FileID(10 + rng.Intn(300))
		}
		if _, ok := fileSize[id]; !ok {
			fileSize[id] = int64(rng.Intn(500) + 1)
		}
		ids[i] = id
		sizes[i] = fileSize[id]
	}
	b := NewCurveBuilder(16) // far under-sized: compacts/doubles repeatedly
	for i := range ids {
		b.Add(ids[i], sizes[i])
	}
	want := refCurveDistances(ids, sizes)
	if len(b.distances) != len(want) {
		t.Fatalf("recorded %d distances, want %d", len(b.distances), len(want))
	}
	for i := range want {
		if b.distances[i] != want[i] {
			t.Fatalf("distance %d = %d, want %d", i, b.distances[i], want[i])
		}
	}
	// The position space must have stayed bounded: 310 distinct files need
	// at most ~1241 positions (compaction keeps live <= half the space),
	// never the 6000 an unbounded tree would use.
	if len(b.bit) >= n {
		t.Fatalf("Fenwick tree grew to %d positions for %d distinct files", len(b.bit), len(fileSize))
	}
}

// TestReuseGrowWithStaleEntry pins a regression: growing the tree during an
// access to an already-seen file used to rebuild from the file table before
// the current file's entry was updated, resurrecting its retired position's
// weight and inflating later distances that spanned it.
func TestReuseGrowWithStaleEntry(t *testing.T) {
	// Builder capacity 17 (16 rounds up). Access files 0..13, then touch 5
	// and 0 again so position 17 triggers growth mid-re-access.
	b := NewCurveBuilder(16)
	for i := 0; i < 14; i++ {
		b.Add(FileID(i), 10)
	}
	b.Add(5, 10) // pos 15
	b.Add(6, 10) // pos 16
	b.Add(0, 10) // pos 17: grow fires during a re-access
	b.Add(1, 10) // prev pos 2 — distance spans file 0's retired pos 1
	ids := []FileID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 5, 6, 0, 1}
	sizes := make([]int64, len(ids))
	for i := range sizes {
		sizes[i] = 10
	}
	want := refCurveDistances(ids, sizes)
	if len(b.distances) != len(want) {
		t.Fatalf("recorded %d distances, want %d", len(b.distances), len(want))
	}
	for i := range want {
		if b.distances[i] != want[i] {
			t.Fatalf("distance %d = %d, want %d", i, b.distances[i], want[i])
		}
	}
}

package server

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// indexedFamilies are the policy families that keep per-file state.
var indexedFamilies = []string{"lard", "lard-basic", "lard-dispatch", "lard-weighted", "l2s", "l2s-weighted"}

// sizingTrace requests under a quarter of its 40,000-file catalogue, so an
// index over the requested files and one over the whole catalogue differ
// in size and in every file's rank.
func sizingTrace() *trace.Trace {
	return trace.MustGenerate(trace.GenSpec{
		Name: "sizing", Files: 40000, AvgFileKB: 6, Requests: 9000,
		AvgReqKB: 5, Alpha: 0.8, LocalityP: 0.3, Seed: 31,
	})
}

// sizingConfig runs a family on an 8-node two-tier cluster, so the weighted
// variants see non-trivial weights.
func sizingConfig(family string) Config {
	profiles := append(UniformProfiles(2, NodeProfile{CPUSpeed: 2, DiskSpeed: 4}),
		UniformProfiles(6, NodeProfile{CPUSpeed: 1, DiskSpeed: 1})...)
	return NewConfig(CustomServer, 8, WithPolicy(family), WithSeed(42), WithCacheBytes(2<<20),
		WithProfiles(profiles...))
}

// TestIndexCapacityIsNotAnInput runs each family twice — through Run's own
// path, whose index holds the files the run requests, and through a
// registered twin (testpolicies_test.go) that hands the same factory no
// request stream, so its index holds the whole catalogue — and requires
// identical Results: a file's rank never reaches a decision, so what the
// index holds cannot change a result.
func TestIndexCapacityIsNotAnInput(t *testing.T) {
	tr := sizingTrace()
	for _, family := range indexedFamilies {
		want, err := Run(sizingConfig(family), tr)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		got, err := Run(sizingConfig(unsizedPrefix+family), tr)
		if err != nil {
			t.Fatalf("%s, unsized: %v", family, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a whole-catalogue index changed the result\n got %+v\nwant %+v", family, got, want)
		}
	}
}

// TestAllocationPerResidentFile is the N=1024 memory contract of the
// per-node caches: a third-scale chash1024 run (the bench workload's trace
// shape and policy) may allocate, garbage included, at most a pinned number
// of bytes per file resident at the end. A thousand caches that each grow
// their own storage by doubling-and-copying pay their growth garbage a
// thousand times over, and show here, not only in a benchmark run. Measured
// when the budget was last lowered: 102.6 B per file — cache state 37 (pages
// of entries and their bucket heads 35.5, the LRU structs 1.6), hash ring 19
// (12 B a point, 17.6; its prefix jump table, 1.5), event calendar 20,
// request-job pool 16 (12,288 jobs of 80 B each, 11; the free list's growth,
// 5), per-node resources 7. It read 108.5 with 16-byte ring points, 120.3
// while each cache kept its bucket heads in a doubled array beside the
// pages, 149.2 while each pooled request job carried a closure per stage
// (288 B a job), and 219.9 with an append-grown entry slice and a
// rehash-doubled two-array index per cache.
func TestAllocationPerResidentFile(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 333,000-file trace; the race detector also changes what is allocated")
	}
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "chash-third", Files: 333_000, AvgFileKB: 6, Requests: 200_000,
		AvgReqKB: 5, Alpha: 0.8, LocalityP: 0.3, Seed: 11,
	})
	cfg := NewConfig(CustomServer, 1024, WithPolicy("chash-bounded"), WithSeed(11))

	// TotalAlloc counts the whole process, so other work running meanwhile
	// can only add to a reading: each run starts after a collection with
	// GOMAXPROCS(1), and the fewest bytes of three runs is the answer.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocated, resident, nodes := uint64(math.MaxUint64), 0, 0
	for range 3 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := newDriver(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		d.eng.Run()
		runtime.ReadMemStats(&after)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		resident, nodes = 0, len(d.nodes)
		for _, n := range d.nodes {
			resident += n.Cache.Len()
		}
	}
	perFile := float64(allocated) / float64(resident)
	t.Logf("%d B allocated for %d resident files on %d nodes: %.1f B/file", allocated, resident, nodes, perFile)
	const budget = 104
	if perFile > budget {
		t.Errorf("run allocated %.1f B per resident file, budget %d", perFile, budget)
	}
}

package server

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/policy"
	"repro/internal/trace"
)

// indexedFamilies are the policy families that keep per-file state.
var indexedFamilies = []string{"lard", "lard-dispatch", "lard-weighted", "l2s", "l2s-weighted"}

// sizingTrace requests under a quarter of its 40,000-file catalogue, so an
// index sized for the catalogue and one grown from empty end at different
// sizes.
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

// TestIndexCapacityIsNotAnInput runs each family twice through the same
// construction path — an empty index that grows as FileIDs arrive, and one
// sized for the catalogue as Run sizes it — and once through Run's own path,
// and requires identical Results: the index's size never reaches a
// decision, so changing how it is sized cannot change a result.
func TestIndexCapacityIsNotAnInput(t *testing.T) {
	tr := sizingTrace()
	for _, family := range indexedFamilies {
		cfg := sizingConfig(family)
		want, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		for _, hint := range []int{0, tr.NumFiles()} {
			hinted := cfg
			hinted.Policy = ""
			hinted.CustomPolicy = func(env policy.Env) policy.Distributor {
				popts := cfg.policyOptions()
				popts.Files = hint
				popts.Weights = capacityWeights(cfg.resolvedProfiles(), cfg.Costs, tr)
				dist, err := policy.MustParseSpec(family).Build(env, popts)
				if err != nil {
					panic(err) // Run reports it as an error
				}
				return dist
			}
			got, err := Run(hinted, tr)
			if err != nil {
				t.Fatalf("%s, hint %d: %v", family, hint, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: hint %d changed the result\n got %+v\nwant %+v", family, hint, got, want)
			}
		}
	}
}

// TestAllocationPerResidentFile is the N=1024 memory contract of the
// per-node caches: a third-scale chash1024 run (the bench workload's trace
// shape and policy) may allocate, garbage included, at most a pinned number
// of bytes per file resident at the end. A thousand caches that each grow
// their own storage by doubling-and-copying pay their growth garbage a
// thousand times over, and show here, not only in a benchmark run. Measured
// when the budget was last lowered: 120.3 B per file — cache state 47 (pages
// 35, bucket arrays 11), hash ring 24, event calendar 22, request-job pool 16
// (12,288 jobs of 80 B each, 11; the free list's growth, 5), per-node
// resources 9. It read 149.2 while each pooled request job carried a closure
// per stage (288 B a job), and 219.9 with an append-grown entry slice and a
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

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := newDriver(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	d.eng.Run()
	runtime.ReadMemStats(&after)

	resident := 0
	for _, n := range d.nodes {
		resident += n.Cache.Len()
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	perFile := float64(allocated) / float64(resident)
	t.Logf("%d B allocated for %d resident files on %d nodes: %.1f B/file", allocated, resident, len(d.nodes), perFile)
	const budget = 135
	if perFile > budget {
		t.Errorf("run allocated %.1f B per resident file, budget %d", perFile, budget)
	}
}

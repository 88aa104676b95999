package server

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fastmap"
	"repro/internal/policy"
	"repro/internal/trace"
)

// indexedFamilies are the policy families that keep per-file state.
var indexedFamilies = []string{"lard", "lard-dispatch", "lard-weighted", "l2s", "l2s-weighted"}

// sizingTrace requests about a third as many distinct files as min(catalog,
// requests) — the bound the index used to be sized from — so the census and
// the bound land in different power-of-two table sizes.
func sizingTrace() *trace.Trace {
	return trace.MustGenerate(trace.GenSpec{
		Name: "sizing", Files: 40000, AvgFileKB: 6, Requests: 9000,
		AvgReqKB: 5, Alpha: 0.8, LocalityP: 0.3, Seed: 31,
	})
}

// sizingConfig runs a family on an 8-node two-tier cluster, so the weighted
// variants see non-trivial weights.
func sizingConfig(family string, opts ...Option) Config {
	profiles := append(UniformProfiles(2, NodeProfile{CPUSpeed: 2, DiskSpeed: 4}),
		UniformProfiles(6, NodeProfile{CPUSpeed: 1, DiskSpeed: 1})...)
	opts = append([]Option{WithPolicy(family), WithSeed(42), WithCacheBytes(2 << 20),
		WithProfiles(profiles...)}, opts...)
	return NewConfig(CustomServer, 8, opts...)
}

// TestPolicyIndexSizedFromCensus checks the sizing rule end to end: after a
// run, every per-file index holds exactly the census count, never rehashed,
// in the smallest table fastmap admits for that count — also when
// MaxRequests truncates the trace inside Run.
func TestPolicyIndexSizedFromCensus(t *testing.T) {
	tr := sizingTrace()
	const truncated = 1500
	full, short := tr.DistinctFiles(), tr.Truncate(truncated).DistinctFiles()
	capFor := func(n int) int { return fastmap.New[struct{}](n).Cap() }
	if bound := min(tr.NumFiles(), tr.NumRequests()); capFor(full) >= capFor(bound) || capFor(short) >= capFor(full) {
		t.Fatalf("trace does not separate the sizes: census %d, truncated %d, bound %d", full, short, bound)
	}
	for _, family := range indexedFamilies {
		for _, tc := range []struct {
			name   string
			opts   []Option
			census int
		}{
			{"full", nil, full},
			{"truncated", []Option{WithMaxRequests(truncated)}, short},
		} {
			d, err := newDriver(sizingConfig(family, tc.opts...), tr)
			if err != nil {
				t.Fatalf("%s/%s: %v", family, tc.name, err)
			}
			d.eng.Run()
			idx, ok := d.dist.(interface{ IndexSizing() (int, int, int) })
			if !ok {
				t.Fatalf("%s: %T reports no index sizing", family, d.dist)
			}
			files, capacity, grows := idx.IndexSizing()
			if files != tc.census {
				t.Errorf("%s/%s: index holds %d files, census counted %d", family, tc.name, files, tc.census)
			}
			if grows != 0 {
				t.Errorf("%s/%s: index rehashed %d times", family, tc.name, grows)
			}
			if want := capFor(tc.census); capacity != want {
				t.Errorf("%s/%s: index capacity %d, want %d for %d files", family, tc.name, capacity, want, tc.census)
			}
		}
	}
}

// TestIndexCapacityIsNotAnInput runs each family twice through the same
// construction path — index hint = the census, index hint = the catalog
// size (the over-estimate Run used to pass) — and once through Run's own
// path, and requires identical Results: table capacity never reaches a
// decision, so changing how it is sized cannot change a result.
func TestIndexCapacityIsNotAnInput(t *testing.T) {
	tr := sizingTrace()
	for _, family := range indexedFamilies {
		cfg := sizingConfig(family)
		want, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		for _, hint := range []int{tr.DistinctFiles(), tr.NumFiles()} {
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
// when the budget was pinned: 150.5 B per file, of which 46 are cache state
// (pages 35, bucket arrays 11) and the rest the request-job pool, the hash
// ring and the calendar; 219.9 with an append-grown entry slice and a
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
	const budget = 170
	if perFile > budget {
		t.Errorf("run allocated %.1f B per resident file, budget %d", perFile, budget)
	}
}

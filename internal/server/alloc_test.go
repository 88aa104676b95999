package server

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/trace"
)

// TestRequestsAllocateNothing pins the pooled request path: once the job,
// message and calendar pools have reached their high-water marks, a request
// allocates nothing. Every registered policy runs the same trace twice on 16
// nodes, 20,000 and then 60,000 requests of it, and the second run may
// allocate fewer than 0.05 objects per extra request; the catalogue fits in
// the default caches, so cache growth is not counted against the requests.
// The closed loop, an open loop, a mid-run node failure and persistent
// connections are covered, and so are the distributed file system's
// home-disk reads, on 1 MiB caches that keep missing.
func TestRequestsAllocateNothing(t *testing.T) {
	// 64 B is exactly one malloc size class; one more field would move
	// every in-flight request to the 80 B class.
	if size := unsafe.Sizeof(requestJob{}); size != 64 {
		t.Errorf("requestJob is %d B, want 64", size)
	}
	if testing.Short() {
		t.Skip("runs every policy over 80,000 requests per mode; the race detector also changes what is allocated")
	}
	long := trace.MustGenerate(trace.GenSpec{
		Name: "alloc", Files: 400, AvgFileKB: 6, Requests: 60_000,
		AvgReqKB: 5, Alpha: 0.8, LocalityP: 0.3, Seed: 5,
	})
	short := long.Truncate(20_000)
	extra := float64(long.NumRequests() - short.NumRequests())
	modes := []struct {
		name string
		opts []Option
	}{
		{"closed", nil},
		{"open", []Option{WithArrivalRate(2000)}},
		{"failure", []Option{WithFailure(3, 0.5)}},
		{"persistent", []Option{WithPersistent(5)}},
		{"dfs", []Option{WithDistributedFS(), WithCacheBytes(1 << 20)}},
	}
	// Mallocs counts the whole process, so other work running meanwhile
	// can only add to a reading: each run starts after a collection with
	// GOMAXPROCS(1), and the fewest objects of three runs is the answer.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(cfg Config, tr *trace.Trace) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(cfg, tr); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	for _, mode := range modes {
		for _, name := range publishedPolicies() {
			cfg := NewConfig(CustomServer, 16, append([]Option{WithPolicy(name), WithSeed(7)}, mode.opts...)...)
			perReq := (float64(mallocs(cfg, long)) - float64(mallocs(cfg, short))) / extra
			t.Logf("%s (%s): %.4f allocations per extra request", name, mode.name, perReq)
			if perReq >= 0.05 {
				t.Errorf("%s (%s): %.3f allocations per extra request, want < 0.05", name, mode.name, perReq)
			}
		}
	}
}

package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/policy/policytest"
)

// The init-time registry hookup is how every CLI reaches this package;
// these tests pin each branch of that factory.

func TestRegistryConstructsL2S(t *testing.T) {
	d, err := policy.New(policy.MustParseSpec("l2s"), policytest.New(4))
	if err != nil {
		t.Fatal(err)
	}
	l, ok := d.(*L2S)
	if !ok {
		t.Fatalf("registry built a %T, want *core.L2S", d)
	}
	if l.Name() != "l2s" {
		t.Fatalf("Name() = %q", l.Name())
	}
	if l.FrontEnd() != -1 {
		t.Fatalf("FrontEnd() = %d, want -1 (no front end)", l.FrontEnd())
	}
	if l.opts != DefaultOptions() {
		t.Fatalf("zero policy.Options gave opts %+v, want defaults", l.opts)
	}
}

func TestRegistryPassesThroughOptions(t *testing.T) {
	want := Options{T: 30, LowT: 15, BroadcastDelta: 2}
	d, err := policy.MustParseSpec("l2s").Build(policytest.New(4), policy.Options{L2S: want})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.(*L2S).opts; got != want {
		t.Fatalf("opts = %+v, want %+v", got, want)
	}
	// The zero Options value means "unset", not "all thresholds zero".
	d, err = policy.MustParseSpec("l2s").Build(policytest.New(4), policy.Options{L2S: Options{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.(*L2S).opts; got != DefaultOptions() {
		t.Fatalf("zero Options gave %+v, want defaults", got)
	}
}

func TestRegistryRejectsBadOptions(t *testing.T) {
	_, err := policy.MustParseSpec("l2s").Build(policytest.New(4), policy.Options{L2S: "not options"})
	if err == nil || !strings.Contains(err.Error(), "want core.Options") {
		t.Fatalf("foreign option type: err = %v", err)
	}
	_, err = policy.MustParseSpec("l2s").Build(policytest.New(4), policy.Options{L2S: Options{T: -1, BroadcastDelta: 4}})
	if err == nil || !strings.Contains(err.Error(), "thresholds") {
		t.Fatalf("invalid thresholds: err = %v", err)
	}
	_, err = policy.MustParseSpec("l2s").Build(policytest.New(4), policy.Options{L2S: Options{T: 20, LowT: 10, BroadcastDelta: 4, ShrinkAfter: math.NaN()}})
	if err == nil || !strings.Contains(err.Error(), "ShrinkAfter") {
		t.Fatalf("NaN ShrinkAfter: err = %v", err)
	}
}

func TestArgminSkipsDeadNodes(t *testing.T) {
	env := policytest.New(4)
	env.Loads = []int{1, 9, 9, 9}
	env.Dead[0] = true // the least-loaded node is down
	load := func(n int) float64 { return float64(env.Loads[n]) }
	if got := argmin(env.N(), load, env.Alive); got == 0 || got < 0 {
		t.Fatalf("argmin = %d, want a live node", got)
	}
}

func TestLeastLoadedMemberFallsBackWhenAllDead(t *testing.T) {
	env := policytest.New(4)
	load := func(n int) float64 { return float64(env.Loads[n]) }
	set := []int32{2, 3}
	env.Dead[2], env.Dead[3] = true, true
	// With every member down there is no good answer; the contract is a
	// deterministic fallback to the first member rather than a crash.
	if got := leastLoadedMember(set, load, env.Alive); got != 2 {
		t.Fatalf("all-dead fallback = %d, want first member 2", got)
	}
	env.Dead[2] = false
	env.Loads = []int{0, 0, 7, 1}
	if got := leastLoadedMember(set, load, env.Alive); got != 2 {
		t.Fatalf("member pick = %d, want the only live member 2", got)
	}
}

func TestServerSetUnknownFile(t *testing.T) {
	l := New(policytest.New(2), DefaultOptions(), policy.NewFileSets(64, nil))
	if set := l.ServerSet(42); set != nil {
		t.Fatalf("ServerSet of a never-requested file = %v, want nil", set)
	}
	l.Service(0, 42)
	set := l.ServerSet(42)
	if len(set) == 0 {
		t.Fatal("ServerSet empty after a request")
	}
	set[0] = -99 // the copy must not alias internal state
	if l.ServerSet(42)[0] == -99 {
		t.Fatal("ServerSet returned an aliased slice")
	}
}

// TestServerSetTableFootprint is the size contract of the server-set table:
// building an l2s or a lard distributor for a run that requests 200,000 of
// a 10^6-file catalogue allocates at most 2 B per requested file plus the
// census (8 B of bitset and 4 B of count per 64 catalogued files), each
// rounded up to the whole 8 KB pages the runtime hands a large allocation,
// plus 4 KB for everything else: 602,112 B, and l2s reads 599,704. A table
// of 2 B per catalogued file reads 2,008,648 B. Allocation is counted for the whole process, so each reading
// starts after a collection at GOMAXPROCS(1) and the fewest bytes of three
// is the answer.
func TestServerSetTableFootprint(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector changes what is allocated: the table is made, then copied")
	}
	const files, every = 1_000_000, 5
	requests := make([]policy.FileID, files/every)
	for i := range requests {
		requests[i] = policy.FileID(i * every)
	}
	pages := func(n int) uint64 { return uint64((n + 8191) / 8192 * 8192) }
	words := (files + 63) / 64
	budget := pages(2*len(requests)) + pages(8*words) + pages(4*words) + 4096
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range []string{"l2s", "lard"} {
		allocated := uint64(math.MaxUint64)
		for range 3 {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := policy.MustParseSpec(name).Build(policytest.New(16), policy.Options{Files: files, Requests: requests})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(d)
			allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		}
		if allocated > budget {
			t.Errorf("%s: building for %d requested of %d files allocated %d B, budget %d", name, len(requests), files, allocated, budget)
		}
	}
}

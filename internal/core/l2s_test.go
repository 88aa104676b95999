package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/policy"
	"repro/internal/policy/policytest"
)

func TestDefaultsMatchPaper(t *testing.T) {
	o := DefaultOptions()
	if o.T != 20 || o.LowT != 10 || o.BroadcastDelta != 4 {
		t.Fatalf("defaults %+v do not match the paper (T=20, t=10, delta=4)", o)
	}
}

func TestFirstRequestServedLocally(t *testing.T) {
	env := policytest.New(4)
	l := New(env, DefaultOptions(), policy.NewFileSets(64, nil))
	if svc := l.Service(2, 1); svc != 2 {
		t.Fatalf("first request serviced at %d, want the initial node 2", svc)
	}
	set := l.ServerSet(1)
	if len(set) != 1 || set[0] != 2 {
		t.Fatalf("server set = %v, want [2]", set)
	}
}

func TestFirstRequestOnOverloadedInitialGoesToLeastLoaded(t *testing.T) {
	env := policytest.New(4)
	l := New(env, DefaultOptions(), policy.NewFileSets(64, nil))
	env.Loads = []int{30, 5, 30, 7}
	if svc := l.Service(0, 1); svc != 1 {
		t.Fatalf("service at %d, want least-loaded node 1", svc)
	}
}

func TestMemberServesLocallyWhenUnderloaded(t *testing.T) {
	env := policytest.New(4)
	l := New(env, DefaultOptions(), policy.NewFileSets(64, nil))
	l.Service(2, 1) // set = {2}
	env.Loads[2] = 10
	if svc := l.Service(2, 1); svc != 2 {
		t.Fatalf("set member under threshold serviced at %d, want 2", svc)
	}
}

func TestNonMemberForwardsToSet(t *testing.T) {
	env := policytest.New(4)
	l := New(env, DefaultOptions(), policy.NewFileSets(64, nil))
	l.Service(2, 1) // set = {2}
	if svc := l.Service(0, 1); svc != 2 {
		t.Fatalf("non-member serviced at %d, want set member 2", svc)
	}
}

func TestReplicationRequiresBothOverloaded(t *testing.T) {
	env := policytest.New(4)
	opts := DefaultOptions()
	opts.Oracle = true // read true loads directly for this unit test
	l := New(env, opts, policy.NewFileSets(64, nil))
	l.Service(2, 1) // set = {2}

	// Only the member overloaded: still forwarded to it (initial is fine
	// but does not cache the file).
	env.Loads = []int{0, 0, 25, 0}
	if svc := l.Service(0, 1); svc != 2 {
		t.Fatalf("service at %d, want 2 (initial not overloaded)", svc)
	}
	if len(l.ServerSet(1)) != 1 {
		t.Fatal("set must not grow while the initial node is underloaded")
	}

	// Both initial and member overloaded: the least-loaded node joins.
	env.Loads = []int{25, 3, 25, 9}
	if svc := l.Service(0, 1); svc != 1 {
		t.Fatalf("service at %d, want new member 1", svc)
	}
	set := l.ServerSet(1)
	if len(set) != 2 {
		t.Fatalf("set = %v, want 2 members", set)
	}
}

func TestShrinkAfterStability(t *testing.T) {
	env := policytest.New(4)
	opts := DefaultOptions()
	opts.Oracle = true
	l := New(env, opts, policy.NewFileSets(64, nil))
	l.Service(2, 1)
	env.Loads = []int{25, 3, 25, 9}
	l.Service(0, 1) // replicate: set = {2, 1}

	// Not enough time has passed: no shrink even though loads are low.
	env.Loads = []int{0, 0, 0, 0}
	l.Service(1, 1)
	if len(l.ServerSet(1)) != 2 {
		t.Fatal("set shrank before the stability window")
	}

	env.Clock = opts.ShrinkAfter + 1
	l.Service(1, 1)
	if got := l.ServerSet(1); len(got) != 1 {
		t.Fatalf("set = %v, want shrunk to 1 member", got)
	}
	if l.Stats().SetShrinks != 1 {
		t.Fatalf("shrinks = %d, want 1", l.Stats().SetShrinks)
	}
}

// TestServiceAllocs pins the hot path: deciding for a file whose set exists
// allocates nothing, whether the request is served locally or forwarded.
func TestServiceAllocs(t *testing.T) {
	env := policytest.New(4)
	l := New(env, DefaultOptions(), policy.NewFileSets(64, nil))
	l.Service(2, 1) // set = {2}
	for _, initial := range []int{2, 0} {
		if allocs := testing.AllocsPerRun(100, func() { l.Service(initial, 1) }); allocs != 0 {
			t.Errorf("Service(%d, 1) allocates %.1f times per call, want 0", initial, allocs)
		}
	}
}

func TestLoadBroadcastOnDelta(t *testing.T) {
	env := policytest.New(4)
	l := New(env, DefaultOptions(), policy.NewFileSets(64, nil))
	env.Loads[1] = 3
	l.OnAssign(1)
	if env.Sent != 0 {
		t.Fatalf("broadcast below delta: %d messages", env.Sent)
	}
	env.Loads[1] = 4
	l.OnAssign(1)
	if env.Sent != 3 {
		t.Fatalf("sent %d messages, want 3 (broadcast at delta 4)", env.Sent)
	}
	if l.Stats().LoadBroadcasts != 1 {
		t.Fatalf("LoadBroadcasts = %d, want 1", l.Stats().LoadBroadcasts)
	}
}

func TestLoadViewIsStaleUntilDelivery(t *testing.T) {
	env := policytest.New(3)
	env.Deferred = true
	l := New(env, DefaultOptions(), policy.NewFileSets(64, nil))
	env.Loads[1] = 4
	l.OnAssign(1)
	// Node 0's view of node 1 is still 0 while the broadcast is in flight.
	if got := l.loadAs(0, 1); got != 0 {
		t.Fatalf("stale view = %d, want 0", got)
	}
	// The node itself always knows its true load.
	if got := l.loadAs(1, 1); got != 4 {
		t.Fatalf("self view = %d, want 4", got)
	}
	env.Flush()
	if got := l.loadAs(0, 1); got != 4 {
		t.Fatalf("post-delivery view = %d, want 4", got)
	}
}

func TestBroadcastReissuedAfterFurtherDrift(t *testing.T) {
	env := policytest.New(3)
	env.Deferred = true
	l := New(env, DefaultOptions(), policy.NewFileSets(64, nil))
	env.Loads[1] = 4
	l.OnAssign(1) // first broadcast in flight
	env.Loads[1] = 9
	l.OnAssign(1) // drifted again, but one broadcast at a time
	if env.Sent != 2 {
		t.Fatalf("sent = %d, want 2 (single in-flight broadcast)", env.Sent)
	}
	env.Flush() // delivery notices the drift and re-broadcasts
	if env.Sent != 4 {
		t.Fatalf("sent = %d, want 4 after re-broadcast", env.Sent)
	}
	env.Flush()
	if got := l.loadAs(0, 1); got != 9 {
		t.Fatalf("view = %d, want 9", got)
	}
}

func TestOracleBypassesStaleness(t *testing.T) {
	env := policytest.New(3)
	opts := DefaultOptions()
	opts.Oracle = true
	l := New(env, opts, policy.NewFileSets(64, nil))
	env.Loads[2] = 17
	if got := l.loadAs(0, 2); got != 17 {
		t.Fatalf("oracle view = %d, want 17", got)
	}
}

func TestFailedNodesAvoided(t *testing.T) {
	env := policytest.New(4)
	l := New(env, DefaultOptions(), policy.NewFileSets(64, nil))
	l.Service(2, 1) // set = {2}
	env.Dead[2] = true
	svc := l.Service(0, 1)
	if svc == 2 {
		t.Fatal("request routed to a dead node")
	}
	set := l.ServerSet(1)
	if len(set) != 1 || set[0] == 2 {
		t.Fatalf("set = %v, want rebuilt without node 2", set)
	}
}

func TestRoundRobinArrivals(t *testing.T) {
	env := policytest.New(3)
	l := New(env, DefaultOptions(), policy.NewFileSets(64, nil))
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, l.Initial(0))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrivals = %v, want %v", got, want)
		}
	}
	if l.FrontEnd() != -1 {
		t.Fatal("L2S must not have a front-end")
	}
}

func TestStatsReplicatedFraction(t *testing.T) {
	env := policytest.New(4)
	opts := DefaultOptions()
	opts.Oracle = true
	l := New(env, opts, policy.NewFileSets(64, nil))
	l.Service(0, 1)
	l.Service(1, 2)
	env.Loads = []int{25, 25, 0, 0}
	l.Service(0, 1) // replicates file 1
	s := l.Stats()
	if s.ReplicatedFrac != 0.5 {
		t.Fatalf("ReplicatedFrac = %v, want 0.5", s.ReplicatedFrac)
	}
	if s.SetSizes[1] != 1 || s.SetSizes[2] != 1 {
		t.Fatalf("SetSizes = %v", s.SetSizes)
	}
}

func TestBadOptionsPanic(t *testing.T) {
	cases := map[string]Options{
		"zero-T":      {T: 0, LowT: 0, BroadcastDelta: 4},
		"t-above-T":   {T: 5, LowT: 9, BroadcastDelta: 4},
		"zero-delta":  {T: 20, LowT: 10, BroadcastDelta: 0},
		"nan-shrink":  {T: 20, LowT: 10, BroadcastDelta: 4, ShrinkAfter: math.NaN()},
		"inf-shrink":  {T: 20, LowT: 10, BroadcastDelta: 4, ShrinkAfter: math.Inf(1)},
		"-inf-shrink": {T: 20, LowT: 10, BroadcastDelta: 4, ShrinkAfter: math.Inf(-1)},
		"neg-shrink":  {T: 20, LowT: 10, BroadcastDelta: 4, ShrinkAfter: -1},
	}
	for name, opts := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			New(policytest.New(2), opts, policy.NewFileSets(64, nil))
		}()
	}
}

// Property: whatever the load pattern and request mix, (a) the chosen
// service node is always alive and valid, (b) server sets only contain
// valid nodes, and (c) every file requested at least once has a non-empty
// server set.
func TestPropertyServiceInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := policytest.New(4 + rng.Intn(12))
		l := New(env, DefaultOptions(), policy.NewFileSets(64, nil))
		files := 1 + rng.Intn(50)
		for step := 0; step < 400; step++ {
			for i := range env.Loads {
				env.Loads[i] = rng.Intn(30)
			}
			env.Clock += rng.Float64()
			f := policy.FileID(rng.Intn(files))
			initial := l.Initial(f)
			svc := l.Service(initial, f)
			if svc < 0 || svc >= env.N() || !env.Alive(svc) {
				return false
			}
			env.Loads[svc]++
			l.OnAssign(svc)
			if rng.Intn(2) == 0 && env.Loads[svc] > 0 {
				env.Loads[svc]--
				l.OnComplete(svc, f)
			}
			set := l.ServerSet(f)
			if len(set) == 0 {
				return false
			}
			for _, n := range set {
				if n < 0 || n >= env.N() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: server sets never exceed the cluster size and contain no
// duplicates.
func TestPropertyNoDuplicateMembers(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := policytest.New(5)
		opts := DefaultOptions()
		opts.Oracle = true
		l := New(env, opts, policy.NewFileSets(64, nil))
		for step := 0; step < 500; step++ {
			for i := range env.Loads {
				env.Loads[i] = rng.Intn(40) // frequently above T
			}
			f := policy.FileID(rng.Intn(8))
			l.Service(l.Initial(f), f)
			set := l.ServerSet(f)
			if len(set) > env.N() {
				return false
			}
			seen := map[int]bool{}
			for _, n := range set {
				if seen[n] {
					return false
				}
				seen[n] = true
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

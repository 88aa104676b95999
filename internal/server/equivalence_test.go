package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/policy"
	"repro/internal/trace"
)

// The equivalence goldens pin the exact Result of server.Run — every float
// bit included — for all registered policies plus the simulator's optional
// modes, on a fixed-seed trace. encoding/json emits the shortest
// round-trippable decimal for a float64, so byte equality of the JSON is bit
// equality of the Result. The goldens were generated from the pointer-heap
// engine and container/list LRU that preceded the pooled, index-based
// implementations; the test therefore proves the allocation-free core
// reproduces the original simulator exactly.
//
// Regenerate (only when results are *supposed* to change) with:
//
//	go test ./internal/server -run TestRunEquivalenceGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the server.Run equivalence goldens")

const goldenPath = "testdata/run_golden.json"

// equivalenceTrace is the fixed workload all golden cases share: big enough
// to exercise warm-up, eviction, forwarding, and every policy's control
// traffic; small enough to keep the test fast.
func equivalenceTrace() *trace.Trace {
	return trace.MustGenerate(trace.GenSpec{
		Name: "equiv", Files: 800, AvgFileKB: 6, Requests: 9000,
		AvgReqKB: 5, Alpha: 0.8, LocalityP: 0.3, Seed: 20,
	})
}

// equivalenceCases enumerates the pinned configurations: every registered
// policy at 8 nodes, plus one case per optional simulator mode.
func equivalenceCases() map[string]Config {
	cases := make(map[string]Config)
	for _, name := range policy.Names() {
		cases["policy/"+name] = NewConfig(CustomServer, 8,
			WithPolicy(name), WithSeed(42), WithCacheBytes(2<<20))
	}
	cases["mode/persistent-l2s"] = NewConfig(L2SServer, 8,
		WithSeed(7), WithCacheBytes(2<<20), WithPersistent(5))
	cases["mode/persistent-lard"] = NewConfig(LARDServer, 8,
		WithSeed(7), WithCacheBytes(2<<20), WithPersistent(5))
	cases["mode/open-loop"] = NewConfig(L2SServer, 8,
		WithSeed(11), WithCacheBytes(2<<20), WithArrivalRate(2000))
	cases["mode/distributed-fs"] = NewConfig(L2SServer, 8,
		WithSeed(13), WithCacheBytes(2<<20), WithDistributedFS())
	cases["mode/failure"] = NewConfig(L2SServer, 8,
		WithSeed(17), WithCacheBytes(2<<20), WithFailure(3, 0.6),
		WithTimelineBucket(0.05))
	cases["mode/heterogeneous"] = NewConfig(L2SServer, 4,
		WithSeed(19), WithCacheBytes(2<<20),
		WithProfiles(cpuProfiles(1, 1, 0.5, 2)...))
	return cases
}

// cpuProfiles returns baseline-disk profiles with the given relative CPU
// speeds: a cluster whose nodes differ only in processor generation.
func cpuProfiles(speeds ...float64) []NodeProfile {
	out := make([]NodeProfile, len(speeds))
	for i, s := range speeds {
		out[i] = NodeProfile{CPUSpeed: s, DiskSpeed: 1}
	}
	return out
}

// TestUniformProfilesMatchGolden proves the profile plumbing is a true
// no-op at baseline hardware: every pre-heterogeneity golden case rerun
// with explicit uniform NodeProfile{1, 1, default, default} profiles must
// reproduce the committed golden bytes exactly. (Weighted policies are
// excluded: uniform profiles legitimately switch them from their nil-
// weight degraded mode to all-ones weights.)
func TestUniformProfilesMatchGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}

	tr := equivalenceTrace()
	cases := equivalenceCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch name {
		case "policy/l2s-weighted", "policy/lard-weighted", "policy/wlc",
			"mode/heterogeneous": // already profiled
			continue
		}
		cfg := cases[name]
		cfg.Profiles = UniformProfiles(cfg.Nodes, NodeProfile{CPUSpeed: 1, DiskSpeed: 1})
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js, _ := json.Marshal(res)
		if string(js) != string(want[name]) {
			t.Errorf("%s: uniform profiles diverged from golden\n got: %s\nwant: %s",
				name, js, want[name])
		}
	}
}

func TestRunEquivalenceGolden(t *testing.T) {
	tr := equivalenceTrace()
	cases := equivalenceCases()

	got := make(map[string]json.RawMessage, len(cases))
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res, err := Run(cases[name], tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		got[name] = js
	}

	if *updateGolden {
		var buf []byte
		buf = append(buf, "{\n"...)
		for i, name := range names {
			buf = append(buf, fmt.Sprintf("  %q: %s", name, got[name])...)
			if i < len(names)-1 {
				buf = append(buf, ',')
			}
			buf = append(buf, '\n')
		}
		buf = append(buf, "}\n"...)
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(names), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (run with -update-golden to generate): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, run produced %d", len(want), len(got))
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry (run with -update-golden)", name)
			continue
		}
		// Byte equality of the compact JSON is bit equality of the Result.
		if string(got[name]) != string(w) {
			t.Errorf("%s: Result diverged from golden\n got: %s\nwant: %s",
				name, got[name], w)
		}
	}
}

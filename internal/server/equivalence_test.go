package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

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
	for _, name := range publishedPolicies() {
		cases["policy/"+name] = NewConfig(CustomServer, 8,
			WithPolicy(name), WithSeed(42), WithCacheBytes(2<<20))
	}
	cases["mode/persistent-l2s"] = NewConfig(L2SServer, 8,
		WithSeed(7), WithCacheBytes(2<<20), WithPersistent(5))
	cases["mode/persistent-lard"] = NewConfig(LARDServer, 8,
		WithSeed(7), WithCacheBytes(2<<20), WithPersistent(5))
	cases["mode/persistent-dfs"] = NewConfig(L2SServer, 8,
		WithSeed(23), WithCacheBytes(1<<20), WithPersistent(5), WithDistributedFS())
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
	want := readGoldens(t, goldenPath)
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
		t.Run(name, func(t *testing.T) {
			cfg := cases[name]
			cfg.Profiles = UniformProfiles(cfg.Nodes, NodeProfile{CPUSpeed: 1, DiskSpeed: 1})
			res, err := Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			js, _ := json.Marshal(res)
			if string(js) != string(want[name]) {
				t.Errorf("uniform profiles diverged from golden\n got: %s\nwant: %s",
					js, want[name])
			}
		})
	}
}

func TestRunEquivalenceGolden(t *testing.T) {
	tr := equivalenceTrace()
	cases := equivalenceCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	checkGoldenCases(t, goldenPath, names, func(t *testing.T, name string) json.RawMessage {
		res, err := Run(cases[name], tr)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return js
	})
}

// checkGoldenCases runs each named case as its own subtest and compares the
// JSON that run returns against the golden file byte for byte; byte
// equality of the compact JSON is bit equality of the Result. Under
// -update-golden it rewrites the file instead, provided every case ran.
func checkGoldenCases(t *testing.T, path string, names []string, run func(t *testing.T, name string) json.RawMessage) {
	t.Helper()
	var want map[string]json.RawMessage
	if !*updateGolden {
		want = readGoldens(t, path)
		if len(want) != len(names) {
			t.Errorf("golden has %d cases, run produced %d", len(want), len(names))
		}
	}
	got := make(map[string]json.RawMessage, len(names))
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			js := run(t, name)
			got[name] = js
			if *updateGolden {
				return
			}
			w, ok := want[name]
			if !ok {
				t.Fatal("no golden entry (run with -update-golden)")
			}
			if string(js) != string(w) {
				t.Errorf("Result diverged from golden\n got: %s\nwant: %s", js, w)
			}
		})
	}
	if *updateGolden && !t.Failed() {
		writeGoldens(t, path, names, got)
	}
}

// readGoldens loads a golden file: one compact JSON value per case name.
func readGoldens(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read goldens (run with -update-golden to generate): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	return want
}

// writeGoldens rewrites a golden file, one case per line in names order.
func writeGoldens(t *testing.T, path string, names []string, got map[string]json.RawMessage) {
	t.Helper()
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
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d goldens to %s", len(names), path)
}

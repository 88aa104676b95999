package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/trace"
)

// flatGoldenPath pins server.Run above the netsim fan-out threshold, where
// every gossip broadcast to the fleet takes the flat path (charge banks and
// epoch rounds) instead of the per-pair messages of run_golden.json's
// 8-node cases. The goldens were generated while the flat path was still
// checked against an independent batched broadcast, so they carry that
// equivalence forward. Each entry holds the Result JSON plus the event and
// gossip counts (the JSON omits GossipMessages).
//
// Regenerate (only when results are *supposed* to change) with:
//
//	go test ./internal/server -run TestFlatGolden -update-golden
const flatGoldenPath = "testdata/flat_golden.json"

// flattenTrace is the workload of the flat goldens: big enough that server
// sets, evictions, and forwarding all engage at N=64 and N=256, where
// every gossip broadcast to the fleet takes the flat path; small enough to
// run every registered policy at both sizes.
func flattenTrace() *trace.Trace {
	return trace.MustGenerate(trace.GenSpec{
		Name: "flatten-equiv", Files: 2000, AvgFileKB: 6, Requests: 24_000,
		AvgReqKB: 5, Alpha: 0.8, LocalityP: 0.3, Seed: 23,
	})
}

// flatGoldenCases enumerates every registered policy at N in {64, 256},
// plus a mid-run crash that exercises the flat path's live-index
// maintenance (fail hook, dead-sender and dead-receiver bookkeeping).
func flatGoldenCases() map[string]Config {
	cases := make(map[string]Config)
	for _, n := range []int{64, 256} {
		for _, name := range publishedPolicies() {
			cases[fmt.Sprintf("n%d/policy/%s", n, name)] = NewConfig(CustomServer, n,
				WithPolicy(name), WithSeed(42), WithCacheBytes(2<<20))
		}
	}
	cases["n64/mode/failure"] = NewConfig(L2SServer, 64,
		WithSeed(17), WithCacheBytes(2<<20), WithFailure(3, 0.6))
	return cases
}

// flatGolden is one golden entry.
type flatGolden struct {
	Events uint64          `json:"events"`
	Gossip uint64          `json:"gossip"`
	Result json.RawMessage `json:"result"`
}

func TestFlatGolden(t *testing.T) {
	tr := flattenTrace()
	cases := flatGoldenCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	checkGoldenCases(t, flatGoldenPath, names, func(t *testing.T, name string) json.RawMessage {
		res, err := Run(cases[name], tr)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		entry, err := json.Marshal(flatGolden{Events: res.Events, Gossip: res.GossipMessages, Result: js})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return entry
	})
}

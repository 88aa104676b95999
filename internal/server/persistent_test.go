package server

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

func persistentConfig(sys System, nodes int) Config {
	return NewConfig(sys, nodes, WithPersistent(5))
}

func TestGeometricLengthMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		k := geometricLength(rng, 7)
		if k < 1 {
			t.Fatal("length below 1")
		}
		sum += float64(k)
	}
	if mean := sum / n; math.Abs(mean-7) > 0.2 {
		t.Fatalf("mean connection length = %v, want about 7", mean)
	}
	if geometricLength(rng, 1) != 1 {
		t.Fatal("mean 1 must always give single-request connections")
	}
	if geometricLength(rng, 0.5) != 1 {
		t.Fatal("mean below 1 must clamp to 1")
	}
}

func TestPersistentConservation(t *testing.T) {
	tr := testTrace(20000)
	for _, sys := range []System{Traditional, LARDServer, L2SServer} {
		cfg := persistentConfig(sys, 4)
		cfg.WarmFraction = 0
		r, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if r.Completed != uint64(tr.NumRequests()) {
			t.Errorf("%v: completed %d of %d requests", sys, r.Completed, tr.NumRequests())
		}
		if r.Connections == 0 {
			t.Errorf("%v: no connections recorded", sys)
		}
		if math.Abs(r.ReqsPerConn-5) > 1 {
			t.Errorf("%v: measured %.1f requests/connection, want about 5", sys, r.ReqsPerConn)
		}

		// A node failure aborts connections mid-way; every request they
		// had not served yet counts as aborted, so none goes missing.
		cfg.FailNode, cfg.FailAtFrac = 2, 0.5
		r, err = Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if r.Aborted == 0 {
			t.Errorf("%v: node failure aborted nothing", sys)
		}
		if got := r.Completed + r.Aborted; got != uint64(tr.NumRequests()) {
			t.Errorf("%v with a failure: completed %d + aborted %d = %d, want %d",
				sys, r.Completed, r.Aborted, got, tr.NumRequests())
		}
	}
}

// TestPersistentDispatcherQueries pins that lard-dispatch charges its query
// round trip to every parsed request on a persistent connection, as it does
// without persistence: a slow dispatcher must throttle the cluster.
func TestPersistentDispatcherQueries(t *testing.T) {
	tr := testTrace(10000)
	run := func(query string) float64 {
		cfg := NewConfig(CustomServer, 8, WithPolicy("lard-dispatch:query="+query),
			WithSeed(3), WithPersistent(5))
		r, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return r.Throughput
	}
	fast, slow := run("0.0001"), run("0.01")
	t.Logf("lard-dispatch, persistent: %.1f req/s at query=0.0001, %.1f at query=0.01", fast, slow)
	if slow >= fast/2 {
		t.Errorf("a 100x slower dispatcher query left throughput at %.1f of %.1f req/s, want below half",
			slow, fast)
	}
}

func TestPersistentRaisesLARDCeiling(t *testing.T) {
	// With persistence the front-end handles connections, not requests, so
	// LARD's throughput ceiling rises by about the requests-per-connection
	// factor. Use a small-file workload where the ceiling binds.
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "tiny", Files: 400, AvgFileKB: 4, Requests: 60000,
		AvgReqKB: 3, Alpha: 1.0, LocalityP: 0.3, Seed: 7,
	})
	plain, err := Run(NewConfig(LARDServer, 16), tr)
	if err != nil {
		t.Fatal(err)
	}
	persistent, err := Run(persistentConfig(LARDServer, 16), tr)
	if err != nil {
		t.Fatal(err)
	}
	if persistent.Throughput < plain.Throughput*1.5 {
		t.Fatalf("persistence should lift LARD's FE ceiling: %v -> %v",
			plain.Throughput, persistent.Throughput)
	}
}

func TestPersistentReducesForwardingAndLatency(t *testing.T) {
	tr := testTrace(30000)
	plain, err := Run(NewConfig(L2SServer, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	persistent, err := Run(persistentConfig(L2SServer, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-off happens at most once per connection; per-request internal
	// forwards remain (back-end forwarding), but connection establishment
	// costs amortize, so median latency falls.
	if persistent.LatencyP50 >= plain.LatencyP50 {
		t.Errorf("persistent p50 %v not below per-request p50 %v",
			persistent.LatencyP50, plain.LatencyP50)
	}
	if persistent.Throughput < plain.Throughput*0.7 {
		t.Errorf("persistence collapsed L2S throughput: %v -> %v",
			plain.Throughput, persistent.Throughput)
	}
}

func TestPersistentTraditionalUnaffected(t *testing.T) {
	tr := testTrace(20000)
	plain, _ := Run(NewConfig(Traditional, 8), tr)
	persistent, _ := Run(persistentConfig(Traditional, 8), tr)
	// The traditional server never forwards, so persistence only removes
	// per-request establishment costs; throughput stays within 15%.
	if math.Abs(persistent.Throughput-plain.Throughput)/plain.Throughput > 0.15 {
		t.Errorf("traditional moved too much: %v -> %v", plain.Throughput, persistent.Throughput)
	}
	if persistent.ForwardedFrac != 0 {
		t.Error("traditional must not forward under persistence")
	}
}

func TestPersistentDeterministic(t *testing.T) {
	tr := testTrace(10000)
	cfg := persistentConfig(L2SServer, 4)
	a, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.Connections != b.Connections {
		t.Fatal("persistent runs must be deterministic")
	}
}

func TestPersistentValidation(t *testing.T) {
	tr := testTrace(100)
	for _, rpc := range []float64{0.5, -1, math.NaN()} {
		if _, err := Run(NewConfig(L2SServer, 2, WithPersistent(rpc)), tr); err == nil {
			t.Errorf("ReqsPerConn %v must be rejected", rpc)
		}
	}
}

func TestLatencyMetricsPopulated(t *testing.T) {
	tr := testTrace(20000)
	r, err := Run(NewConfig(L2SServer, 4), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.LatencyMean <= 0 || r.LatencyP50 <= 0 || r.LatencyP99 <= 0 {
		t.Fatalf("latency metrics missing: %+v", r)
	}
	if r.LatencyP99 < r.LatencyP50 {
		t.Fatal("p99 below p50")
	}
	if r.LoadImbalance < 1 {
		t.Fatalf("imbalance %v below 1", r.LoadImbalance)
	}
}

func TestClientAwarePolicyReceivesClients(t *testing.T) {
	spec := trace.GenSpec{
		Name: "clients", Files: 300, AvgFileKB: 20, Requests: 20000,
		AvgReqKB: 12, Alpha: 0.9, Clients: 40, Seed: 3,
	}
	tr := trace.MustGenerate(spec)
	r, err := Run(NewConfig(CustomServer, 8, WithPolicy("cached-dns:ttl=50")), tr)
	if err != nil {
		t.Fatal(err)
	}
	// 40 Zipf-active clients pinned by DNS caching over 8 nodes must show
	// measurable imbalance compared to fewest-connections.
	base, _ := Run(NewConfig(Traditional, 8), tr)
	if r.LoadImbalance <= base.LoadImbalance {
		t.Errorf("cached DNS imbalance %v not above traditional %v",
			r.LoadImbalance, base.LoadImbalance)
	}
}

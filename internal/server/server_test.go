package server

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/trace"
)

// testTrace returns a small workload with enough reuse to exercise caching:
// 800 files of ~20 KB with a 500 MB-scale shape compressed to test size.
func testTrace(requests int) *trace.Trace {
	return trace.MustGenerate(trace.GenSpec{
		Name: "test", Files: 800, AvgFileKB: 30, Requests: requests,
		AvgReqKB: 15, Alpha: 1.0, LocalityP: 0.3, Seed: 42,
	})
}

func TestRunConservation(t *testing.T) {
	tr := testTrace(20000)
	for _, sys := range []System{Traditional, LARDServer, L2SServer} {
		cfg := NewConfig(sys, 4)
		cfg.WarmFraction = 0 // measure everything
		r, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if r.Completed+r.Aborted != uint64(tr.NumRequests()) {
			t.Errorf("%v: completed %d + aborted %d != %d requests",
				sys, r.Completed, r.Aborted, tr.NumRequests())
		}
		if r.Aborted != 0 {
			t.Errorf("%v: %d aborted without failures", sys, r.Aborted)
		}
		if r.Throughput <= 0 {
			t.Errorf("%v: throughput %v", sys, r.Throughput)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := testTrace(10000)
	cfg := NewConfig(L2SServer, 8)
	a, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.MissRate != b.MissRate ||
		a.Events != b.Events || a.ControlMessages != b.ControlMessages {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestSingleNodeSystemsCoincide(t *testing.T) {
	tr := testTrace(15000)
	var thr []float64
	for _, sys := range []System{Traditional, LARDServer, L2SServer} {
		r, err := Run(NewConfig(sys, 1), tr)
		if err != nil {
			t.Fatal(err)
		}
		thr = append(thr, r.Throughput)
		if r.ForwardedFrac != 0 {
			t.Errorf("%v on one node forwarded %.1f%%", sys, r.ForwardedFrac*100)
		}
	}
	for i := 1; i < len(thr); i++ {
		if math.Abs(thr[i]-thr[0])/thr[0] > 0.02 {
			t.Fatalf("single-node throughputs diverge: %v", thr)
		}
	}
}

func TestForwardingFractions(t *testing.T) {
	tr := testTrace(20000)
	trad, err := Run(NewConfig(Traditional, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	if trad.ForwardedFrac != 0 {
		t.Errorf("traditional forwarded %.1f%%, want 0", trad.ForwardedFrac*100)
	}
	lard, err := Run(NewConfig(LARDServer, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	if lard.ForwardedFrac != 1 {
		t.Errorf("LARD forwarded %.1f%%, want 100%%", lard.ForwardedFrac*100)
	}
	l2s, err := Run(NewConfig(L2SServer, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	if l2s.ForwardedFrac <= 0 || l2s.ForwardedFrac >= 1 {
		t.Errorf("L2S forwarded %.1f%%, want strictly between 0 and 100%%",
			l2s.ForwardedFrac*100)
	}
	if l2s.ForwardedFrac >= lard.ForwardedFrac {
		t.Error("L2S must forward fewer requests than LARD")
	}
}

func TestLocalityConsciousMissRatesLower(t *testing.T) {
	tr := testTrace(30000)
	trad, _ := Run(NewConfig(Traditional, 8), tr)
	l2s, _ := Run(NewConfig(L2SServer, 8), tr)
	lard, _ := Run(NewConfig(LARDServer, 8), tr)
	if l2s.MissRate >= trad.MissRate {
		t.Errorf("L2S miss %.1f%% not below traditional %.1f%%",
			l2s.MissRate*100, trad.MissRate*100)
	}
	if lard.MissRate >= trad.MissRate {
		t.Errorf("LARD miss %.1f%% not below traditional %.1f%%",
			lard.MissRate*100, trad.MissRate*100)
	}
}

func TestL2SOutperformsAtScale(t *testing.T) {
	tr := testTrace(40000)
	trad, _ := Run(NewConfig(Traditional, 16), tr)
	lard, _ := Run(NewConfig(LARDServer, 16), tr)
	l2s, _ := Run(NewConfig(L2SServer, 16), tr)
	if l2s.Throughput <= lard.Throughput {
		t.Errorf("L2S %v not above LARD %v at 16 nodes", l2s.Throughput, lard.Throughput)
	}
	if l2s.Throughput <= trad.Throughput {
		t.Errorf("L2S %v not above traditional %v at 16 nodes", l2s.Throughput, trad.Throughput)
	}
}

func TestLARDFrontEndCeiling(t *testing.T) {
	// With plentiful nodes and tiny files, LARD saturates near
	// 1/FECostSec = 5000 requests/s.
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "tiny", Files: 400, AvgFileKB: 4, Requests: 40000,
		AvgReqKB: 3, Alpha: 1.0, LocalityP: 0.3, Seed: 7,
	})
	r, err := Run(NewConfig(LARDServer, 16), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput < 3500 || r.Throughput > 5300 {
		t.Fatalf("LARD throughput %v, want near the 5000/s front-end ceiling", r.Throughput)
	}
	// And the front-end (node 0) is the busiest CPU.
	fe := r.PerNodeCPUUtil[0]
	for i, u := range r.PerNodeCPUUtil[1:] {
		if u > fe {
			t.Fatalf("back-end %d CPU %.2f busier than front-end %.2f", i+1, u, fe)
		}
	}
}

func TestThroughputScalesWithNodes(t *testing.T) {
	tr := testTrace(30000)
	prev := 0.0
	for _, n := range []int{1, 4, 16} {
		r, err := Run(NewConfig(L2SServer, n), tr)
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput <= prev {
			t.Fatalf("L2S throughput at %d nodes (%v) not above %v", n, r.Throughput, prev)
		}
		prev = r.Throughput
	}
}

func TestL2SNodeFailureDegradesGracefully(t *testing.T) {
	tr := testTrace(30000)
	base, _ := Run(NewConfig(L2SServer, 8), tr)
	cfg := NewConfig(L2SServer, 8)
	cfg.FailNode = 3
	cfg.FailAtFrac = 0.5
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Requests in flight at the failed node are lost, but the server keeps
	// operating: the completion count stays close to the total.
	lost := float64(r.Aborted) / float64(tr.NumRequests())
	if lost > 0.05 {
		t.Errorf("L2S lost %.1f%% of requests to one node failure", lost*100)
	}
	if r.Throughput < base.Throughput*0.5 {
		t.Errorf("L2S throughput collapsed after one node failure: %v vs %v",
			r.Throughput, base.Throughput)
	}
}

func TestLARDFrontEndFailureIsFatal(t *testing.T) {
	tr := testTrace(30000)
	cfg := NewConfig(LARDServer, 8)
	cfg.FailNode = 0 // the front-end
	cfg.FailAtFrac = 0.5
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Every request after the failure dies: the single point of failure.
	if float64(r.Aborted) < 0.4*float64(tr.NumRequests()) {
		t.Errorf("only %d of %d requests lost after front-end failure",
			r.Aborted, tr.NumRequests())
	}
}

func TestWarmFractionReducesMissRate(t *testing.T) {
	tr := testTrace(30000)
	cold := NewConfig(Traditional, 4)
	cold.WarmFraction = 0
	warm := NewConfig(Traditional, 4)
	warm.WarmFraction = 0.5
	rc, _ := Run(cold, tr)
	rw, _ := Run(warm, tr)
	if rw.MissRate >= rc.MissRate {
		t.Errorf("warmed miss %.1f%% not below cold %.1f%%",
			rw.MissRate*100, rc.MissRate*100)
	}
}

func TestMaxRequestsTruncates(t *testing.T) {
	tr := testTrace(30000)
	cfg := NewConfig(Traditional, 2)
	cfg.MaxRequests = 5000
	cfg.WarmFraction = 0
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 5000 {
		t.Fatalf("Completed = %d, want 5000", r.Completed)
	}
}

// TestExternallyRegisteredPolicy runs a distributor registered outside
// package policy (testpolicies_test.go) through the spec route every policy
// takes.
func TestExternallyRegisteredPolicy(t *testing.T) {
	tr := testTrace(5000)
	r, err := Run(NewConfig(CustomServer, 4, WithPolicy("test-fewest")), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.System != "traditional" {
		t.Fatalf("System = %q", r.System)
	}
}

func TestL2SStatsExposed(t *testing.T) {
	tr := testTrace(20000)
	r, err := Run(NewConfig(L2SServer, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.L2S == nil {
		t.Fatal("L2S stats missing")
	}
	if r.L2S.LoadBroadcasts == 0 {
		t.Error("expected load broadcasts under saturation")
	}
	if len(r.L2S.SetSizes) == 0 {
		t.Error("expected server sets to exist")
	}
}

func TestMeanLoadWithinWindow(t *testing.T) {
	tr := testTrace(20000)
	cfg := NewConfig(L2SServer, 4)
	r, _ := Run(cfg, tr)
	if r.MeanLoad <= 0 || r.MeanLoad > float64(cfg.WindowPerNode)+1 {
		t.Fatalf("MeanLoad = %v, window per node = %d", r.MeanLoad, cfg.WindowPerNode)
	}
}

func TestUtilizationsBounded(t *testing.T) {
	tr := testTrace(20000)
	for _, sys := range []System{Traditional, LARDServer, L2SServer} {
		r, _ := Run(NewConfig(sys, 8), tr)
		if r.MeanCPUUtil < 0 || r.MeanCPUUtil > 1+1e-9 {
			t.Errorf("%v: CPU util %v", sys, r.MeanCPUUtil)
		}
		if r.RouterUtil < 0 || r.RouterUtil > 1+1e-9 {
			t.Errorf("%v: router util %v", sys, r.RouterUtil)
		}
		if math.Abs(r.CPUIdle-(1-r.MeanCPUUtil)) > 1e-12 {
			t.Errorf("%v: idle inconsistent with util", sys)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	tr := testTrace(100)
	freeFrontEnd := func(c *Config) { c.FECostSec = 0 }
	bad := []Config{
		{Policy: "traditional", Nodes: 0, WindowPerNode: 1},
		{Policy: "traditional", Nodes: 2, WindowPerNode: 0},
		{Policy: "traditional", Nodes: 2, WindowPerNode: 1, WarmFraction: 0.99},
		{Nodes: 2, WindowPerNode: 1},
		{Policy: "traditional", Nodes: 2, WindowPerNode: 1, FailNode: 5},
		// A front-end needs a cost, whichever way the policy is named.
		NewConfig(LARDServer, 4, freeFrontEnd),
		NewConfig(CustomServer, 4, WithPolicy("lard"), freeFrontEnd),
		NewConfig(CustomServer, 4, WithPolicy("lard-basic"), freeFrontEnd),
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, tr); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
}

func TestSystemString(t *testing.T) {
	if Traditional.String() != "traditional" || LARDServer.String() != "lard" ||
		L2SServer.String() != "l2s" || CustomServer.String() != "custom" {
		t.Fatal("system names wrong")
	}
	if System(42).String() == "" {
		t.Fatal("unknown system must still render")
	}
}

// Cross-validation against the analytic model: in a regime the model
// captures exactly (uniform file size, everything cached, no forwarding),
// the simulator must approach the model's CPU-bound throughput.
func TestSimulatorMatchesModelCPUBound(t *testing.T) {
	// 50 files of exactly 16 KB: fits easily in a 32 MB cache, so the
	// measured interval is all hits.
	sizes := make([]int64, 50)
	for i := range sizes {
		sizes[i] = 16 << 10
	}
	reqs := make([]cache.FileID, 60000)
	rng := rand.New(rand.NewSource(1))
	for i := range reqs {
		reqs[i] = cache.FileID(rng.Intn(len(sizes)))
	}
	tr := &trace.Trace{Name: "uniform", Sizes: sizes, Requests: reqs}

	cfg := NewConfig(Traditional, 4)
	cfg.WindowPerNode = 24 // enough concurrency to saturate
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.MissRate > 0.001 {
		t.Fatalf("expected all hits, miss rate %v", r.MissRate)
	}

	p := cfg.Costs
	p.Nodes = 4
	p.AvgFileKB = 16
	bound := p.Bound(1, 0).RequestsPerSec
	if r.Throughput > bound*1.01 {
		t.Fatalf("simulator %v exceeds the model bound %v", r.Throughput, bound)
	}
	if r.Throughput < bound*0.90 {
		t.Fatalf("simulator %v far below the model bound %v (should saturate)", r.Throughput, bound)
	}
}

func TestDistributedFSCostsThroughput(t *testing.T) {
	// A miss-heavy workload: the DFS's remote disk reads must cost
	// something but not change correctness.
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "missy", Files: 5000, AvgFileKB: 30, Requests: 30000,
		AvgReqKB: 25, Alpha: 0.6, Seed: 4,
	})
	local, err := Run(NewConfig(Traditional, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(Traditional, 8)
	cfg.DistributedFS = true
	dfs, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if dfs.Completed+dfs.Aborted == 0 {
		t.Fatal("no requests completed under DFS")
	}
	if dfs.Throughput > local.Throughput*1.02 {
		t.Fatalf("remote disk reads should not be faster: %v vs %v",
			dfs.Throughput, local.Throughput)
	}
	if dfs.Throughput < local.Throughput*0.5 {
		t.Fatalf("DFS collapsed throughput: %v vs %v", dfs.Throughput, local.Throughput)
	}
	// The DFS moves data over the cluster network, so messages appear even
	// for the traditional server.
	if dfs.ControlMessages == 0 {
		t.Fatal("DFS fetches should use the cluster network")
	}
	if local.ControlMessages != 0 {
		t.Fatal("traditional server without DFS must not message")
	}
}

func TestFileHomeSpreads(t *testing.T) {
	counts := make([]int, 8)
	for f := 0; f < 8000; f++ {
		h := fileHome(cache.FileID(f), 8)
		if h < 0 || h >= 8 {
			t.Fatalf("home %d out of range", h)
		}
		counts[h]++
	}
	for n, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("node %d homes %d files, expected near 1000", n, c)
		}
	}
}

func TestHeterogeneousCPUs(t *testing.T) {
	tr := testTrace(30000)
	base, err := Run(NewConfig(L2SServer, 4), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Two fast nodes, two half-speed nodes.
	het, err := Run(NewConfig(L2SServer, 4, WithProfiles(cpuProfiles(1, 1, 0.5, 0.5)...)), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Slower hardware means lower throughput, but connection-count load
	// balancing adapts: the cluster must retain well over half the
	// homogeneous throughput (naive equal spread would be capped by the
	// slow nodes).
	if het.Throughput >= base.Throughput {
		t.Fatalf("heterogeneous %v not below homogeneous %v", het.Throughput, base.Throughput)
	}
	if het.Throughput < base.Throughput*0.55 {
		t.Fatalf("throughput collapsed on mixed hardware: %v vs %v",
			het.Throughput, base.Throughput)
	}
	// The fast nodes end up busier in absolute work terms: their CPU time
	// per unit utilization covers twice the requests, so utilization
	// should be comparable or higher on slow nodes, not pathologically
	// imbalanced.
	if het.LoadImbalance > 3 {
		t.Fatalf("load imbalance %v too high", het.LoadImbalance)
	}
}

func TestCPUProfileValidation(t *testing.T) {
	tr := testTrace(100)
	if _, err := Run(NewConfig(Traditional, 2, WithProfiles(cpuProfiles(1)...)), tr); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Run(NewConfig(Traditional, 2, WithProfiles(cpuProfiles(1, -1)...)), tr); err == nil {
		t.Fatal("negative speed accepted")
	}
}

func TestTimelineShowsFailureDip(t *testing.T) {
	tr := testTrace(30000)
	cfg := NewConfig(L2SServer, 8)
	cfg.TimelineBucket = 0.5
	cfg.FailNode = 3
	cfg.FailAtFrac = 0.7
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timeline) < 4 {
		t.Fatalf("timeline too short: %d buckets", len(r.Timeline))
	}
	// Steady state before the failure, reduced capacity after: the last
	// full bucket must be below the early steady-state level.
	early := r.Timeline[1]
	late := r.Timeline[len(r.Timeline)-2]
	if early <= 0 || late <= 0 {
		t.Fatalf("timeline has empty buckets: %v", r.Timeline)
	}
	if late >= early {
		t.Errorf("no throughput dip after node failure: early %v, late %v", early, late)
	}
}

func TestTimelineDisabledByDefault(t *testing.T) {
	tr := testTrace(5000)
	r, err := Run(NewConfig(Traditional, 2), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timeline) != 0 {
		t.Fatal("timeline recorded without being configured")
	}
}

// Section 6: the dispatcher-based LARD variant accepts connections on all
// serving nodes, so it escapes the original front-end's ~5000 req/s accept
// ceiling — but its dispatcher remains a (higher) bottleneck and a single
// point of failure, and L2S still wins.
func TestLARDDispatcherScalesPastFrontEnd(t *testing.T) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "tiny", Files: 400, AvgFileKB: 4, Requests: 60000,
		AvgReqKB: 3, Alpha: 1.0, LocalityP: 0.3, Seed: 7,
	})
	lard, err := Run(NewConfig(LARDServer, 16), tr)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := Run(NewConfig(LARDDispatcher, 16), tr)
	if err != nil {
		t.Fatal(err)
	}
	if disp.Throughput < lard.Throughput*1.2 {
		t.Fatalf("dispatcher variant %v should outscale the front-end %v",
			disp.Throughput, lard.Throughput)
	}
	l2s, err := Run(NewConfig(L2SServer, 16), tr)
	if err != nil {
		t.Fatal(err)
	}
	if l2s.Throughput <= disp.Throughput {
		t.Fatalf("L2S %v should still beat the dispatcher variant %v",
			l2s.Throughput, disp.Throughput)
	}
	if disp.ForwardedFrac < 0.85 {
		t.Fatalf("dispatcher variant forwards nearly everything, got %.1f%%",
			disp.ForwardedFrac*100)
	}
}

func TestLARDDispatcherSinglePointOfFailure(t *testing.T) {
	tr := testTrace(30000)
	cfg := NewConfig(LARDDispatcher, 8)
	cfg.FailNode = 0 // the dispatcher
	cfg.FailAtFrac = 0.5
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if float64(r.Aborted) < 0.4*float64(tr.NumRequests()) {
		t.Errorf("only %d of %d requests lost after dispatcher failure",
			r.Aborted, tr.NumRequests())
	}
}

func TestLARDDispatcherSingleNode(t *testing.T) {
	tr := testTrace(5000)
	r, err := Run(NewConfig(LARDDispatcher, 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 || r.ForwardedFrac != 0 {
		t.Fatalf("single-node dispatcher: %+v", r)
	}
}

// Cross-validation against closed-network theory: a single-node cluster
// with a window of W outstanding connections is a closed queueing network
// with W customers. Exact MVA (with exponential-service assumptions) lower
// bounds the deterministic-service simulator, and the asymptotic bound
// caps both, so the simulated throughput must fall in between at every
// window size.
func TestWindowThroughputMatchesMVA(t *testing.T) {
	sizes := make([]int64, 50)
	for i := range sizes {
		sizes[i] = 16 << 10
	}
	tr := uniformTrace(sizes, 40000)

	costs := NewConfig(Traditional, 1).Costs
	const skb = 16.0
	demands := []float64{
		costs.RouterTime(costs.ReqKB) + costs.RouterTime(skb), // router in+out
		costs.NIInTime(),
		costs.ParseTime() + costs.ReplyTime(skb), // CPU
		costs.NIOutTime(skb),
	}
	for _, w := range []int{1, 2, 4, 8, 16} {
		cfg := NewConfig(Traditional, 1)
		cfg.WindowPerNode = w
		r, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		mva := mvaThroughput(demands, w)
		upper := asymptoticBound(demands, w)
		if r.Throughput < mva*0.98 {
			t.Errorf("window %d: simulated %v below the MVA prediction %v",
				w, r.Throughput, mva)
		}
		if r.Throughput > upper*1.02 {
			t.Errorf("window %d: simulated %v above the asymptotic bound %v",
				w, r.Throughput, upper)
		}
	}
}

// mvaThroughput is exact Mean Value Analysis of a closed network of
// single-server FCFS stations with no think time: the throughput of n
// customers cycling through stations with the given per-cycle demands.
func mvaThroughput(demands []float64, n int) float64 {
	queue := make([]float64, len(demands)) // mean queue lengths at pop-1
	var x float64
	for pop := 1; pop <= n; pop++ {
		var cycle float64
		for i, d := range demands {
			cycle += d * (1 + queue[i])
		}
		x = float64(pop) / cycle
		for i, d := range demands {
			queue[i] = x * d * (1 + queue[i]) // Little's law per station
		}
	}
	return x
}

// asymptoticBound is the classic bound on the same network's throughput:
// min(n / sum of demands, 1 / largest demand).
func asymptoticBound(demands []float64, n int) float64 {
	var sum, dmax float64
	for _, d := range demands {
		sum += d
		dmax = max(dmax, d)
	}
	return min(float64(n)/sum, 1/dmax)
}

// One customer never queues: X(1) = 1 / (sum of demands), one station
// or several.
func TestMVASingleStationSingleCustomer(t *testing.T) {
	for _, demands := range [][]float64{{0.1}, {0.2, 0.1}, {0.004, 0.002, 0.0005}} {
		var sum float64
		for _, d := range demands {
			sum += d
		}
		if got := mvaThroughput(demands, 1); math.Abs(got-1/sum) > 1e-12/sum {
			t.Errorf("demands %v: X(1) = %v, want %v", demands, got, 1/sum)
		}
	}
}

// One station is saturated from the first customer on: X = 1/D at every
// population.
func TestMVASingleStationSaturates(t *testing.T) {
	for _, n := range []int{1, 2, 50} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			if got := mvaThroughput([]float64{0.1}, n); math.Abs(got-10) > 1e-12*10 {
				t.Errorf("X(%d) = %v, want 10", n, got)
			}
		})
	}
}

// The textbook two-station network D = (0.2, 0.1): n = 1 gives R = 0.3
// and X = 10/3 with queues (2/3, 1/3); n = 2 gives R = 0.2(1 + 2/3) +
// 0.1(1 + 1/3) = 7/15 and X = 30/7.
func TestMVAKnownTwoStation(t *testing.T) {
	two := []float64{0.2, 0.1}
	for n, want := range map[int]float64{1: 10.0 / 3, 2: 30.0 / 7} {
		if got := mvaThroughput(two, n); math.Abs(got-want) > 1e-12*want {
			t.Errorf("X(%d) = %v, want %v", n, got, want)
		}
	}
}

// As the population grows, MVA converges to the open network's capacity
// for the same demands, 1 / the largest demand: the saturation bound of
// the paper's model.
func TestMVAConvergesToOpenCapacity(t *testing.T) {
	for _, demands := range [][]float64{{0.2, 0.1}, {0.004, 0.002, 0.0005}} {
		want := 1 / slices.Max(demands)
		if got := mvaThroughput(demands, 200); math.Abs(got-want) > 0.01*want {
			t.Errorf("demands %v: X(200) = %v, want about %v", demands, got, want)
		}
	}
}

// The asymptotic bound is n / (sum of demands) while that is below
// 1 / the largest demand, and 1 / the largest demand after: for
// D = (0.2, 0.1), 10/3 at one customer and 5 from two on.
func TestAsymptoticBound(t *testing.T) {
	two := []float64{0.2, 0.1}
	for n, want := range map[int]float64{1: 10.0 / 3, 2: 5, 100: 5} {
		if got := asymptoticBound(two, n); math.Abs(got-want) > 1e-12*want {
			t.Errorf("bound(%d) = %v, want %v", n, got, want)
		}
	}
}

// Property: MVA throughput never falls as customers are added, never
// exceeds the asymptotic bound, and never falls below the pessimistic
// bound n / (sum of demands + (n-1) x the largest demand), which is what
// a customer would see if it queued behind every other at the bottleneck.
func TestPropertyMVAInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		demands := make([]float64, 1+rng.Intn(5))
		var sum float64
		for i := range demands {
			demands[i] = 0.01 + rng.Float64()*0.5
			sum += demands[i]
		}
		dmax := slices.Max(demands)
		prev := 0.0
		for n := 1; n <= 30; n++ {
			x := mvaThroughput(demands, n)
			if x < prev-1e-12 ||
				x > asymptoticBound(demands, n)*(1+1e-9) ||
				x < float64(n)/(sum+float64(n-1)*dmax)*(1-1e-9) {
				return false
			}
			prev = x
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package server

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// uniformTrace builds a workload of uniformly popular, equally sized files.
func uniformTrace(sizes []int64, requests int) *trace.Trace {
	rng := rand.New(rand.NewSource(3))
	reqs := make([]cache.FileID, requests)
	for i := range reqs {
		reqs[i] = cache.FileID(rng.Intn(len(sizes)))
	}
	return &trace.Trace{Name: "uniform", Sizes: sizes, Requests: reqs}
}

func TestOpenLoopThroughputTracksOfferedLoad(t *testing.T) {
	tr := testTrace(30000)
	cfg := NewConfig(L2SServer, 8, WithArrivalRate(500)) // well under capacity (~3000 req/s at 8 nodes)
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Completed throughput equals the offered rate (within Poisson noise).
	if r.Throughput < 450 || r.Throughput > 550 {
		t.Fatalf("throughput %v, want about the offered 500 req/s", r.Throughput)
	}
	if r.Completed != uint64(tr.NumRequests())-uint64(cfg.WarmFraction*float64(tr.NumRequests())) &&
		r.Completed == 0 {
		t.Fatalf("completed = %d", r.Completed)
	}
}

func TestOpenLoopLatencyGrowsWithLoad(t *testing.T) {
	tr := testTrace(30000)
	latencyAt := func(rate float64) float64 {
		cfg := NewConfig(L2SServer, 8, WithArrivalRate(rate))
		r, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return r.LatencyMean
	}
	low := latencyAt(300)
	high := latencyAt(2200)
	if low <= 0 {
		t.Fatal("no latency measured")
	}
	if high <= low {
		t.Fatalf("latency must grow with offered load: %v at 300/s vs %v at 2200/s", low, high)
	}
}

func TestOpenLoopLatencyNearModelAtLightLoad(t *testing.T) {
	// At light load queueing is negligible, so the simulated mean response
	// time must approach the model's zero-load service time for the same
	// workload shape (single node, everything cached, uniform size).
	sizes := make([]int64, 20)
	for i := range sizes {
		sizes[i] = 16 << 10
	}
	tr := uniformTrace(sizes, 20000)

	cfg := NewConfig(Traditional, 1, WithArrivalRate(20)) // ~4% utilization
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Costs
	p.Nodes = 1
	p.AvgFileKB = 16
	want := p.Latency(20, 1, 0)
	if r.LatencyMean < want*0.7 || r.LatencyMean > want*1.5 {
		t.Fatalf("light-load latency %v, model predicts %v", r.LatencyMean, want)
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	tr := testTrace(10000)
	cfg := NewConfig(Traditional, 4, WithArrivalRate(400))
	a, _ := Run(cfg, tr)
	b, _ := Run(cfg, tr)
	if a.Throughput != b.Throughput || a.LatencyMean != b.LatencyMean {
		t.Fatal("open-loop runs must be deterministic")
	}
}

func TestOpenLoopValidation(t *testing.T) {
	tr := testTrace(100)
	for _, rate := range []float64{-1, 0, math.NaN()} {
		if _, err := Run(NewConfig(Traditional, 2, WithArrivalRate(rate)), tr); err == nil {
			t.Errorf("arrival rate %v accepted", rate)
		}
	}
}

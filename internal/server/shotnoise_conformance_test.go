package server

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/queuemodel"
	"repro/internal/shotnoise"
	"repro/internal/trace"
)

// Conformance suite for the shot-noise workload against Olmos, Graham &
// Simonian (Cache Miss Estimation for Non-Stationary Request Processes,
// arXiv:1511.07392): the full simulator — router, node, byte-LRU cache —
// replaying a synthesized shot-noise trace on one node must reproduce the
// model's analytic miss probability, and in the long-lifetime limit recover
// the stationary Che/Ji-Quan-Tan reference of PR 8. Both tests measure the
// whole stream (WarmFraction 0): the analytic counts each document's
// compulsory miss, so warm-up must not be discarded.

const (
	snConfFileBytes = 4096
	snConfDocRate   = 25.0
	snConfHorizon   = 200.0
	snConfMeanReqs  = 50.0
	snConfLifetime  = 5.0
)

// snTrace wraps a shot-noise realization as an equal-sized-file trace, so a
// byte-LRU of C*snConfFileBytes is exactly the model's C-document LRU.
func snTrace(p *shotnoise.Process) *trace.Trace {
	sizes := make([]int64, len(p.Docs))
	for i := range sizes {
		sizes[i] = snConfFileBytes
	}
	reqs := make([]cache.FileID, len(p.DocOf))
	for i, id := range p.DocOf {
		reqs[i] = cache.FileID(id)
	}
	tr := &trace.Trace{Name: "shotnoise-conformance", Sizes: sizes, Requests: reqs}
	if err := tr.Validate(); err != nil {
		panic(err)
	}
	return tr
}

// snMissRate replays the trace through the real single-node simulator.
func snMissRate(t *testing.T, tr *trace.Trace, cacheDocs int) float64 {
	t.Helper()
	cfg := NewConfig(CustomServer, 1,
		WithPolicy("chash"), WithSeed(42), WithWarmFraction(0),
		WithCacheBytes(int64(cacheDocs)*snConfFileBytes))
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res.MissRate
}

// TestShotNoiseMissMatchesOlmosGrahamSimonian pins the simulated miss ratio
// on a churned trace to the model's closed form at three cache sizes
// spanning miss ratios from ~50% down to ~10%.
func TestShotNoiseMissMatchesOlmosGrahamSimonian(t *testing.T) {
	p := shotnoise.MustGenerate(shotnoise.Spec{
		Rate: snConfDocRate, Horizon: snConfHorizon,
		MeanRequests: snConfMeanReqs, Lifetime: snConfLifetime, Seed: 9,
	})
	tr := snTrace(p)
	model := queuemodel.ShotNoise{
		DocRate: snConfDocRate, MeanRequests: snConfMeanReqs, Lifetime: snConfLifetime,
	}
	for _, c := range []int{150, 400, 800} {
		sim := snMissRate(t, tr, c)
		analytic := model.LRUMiss(float64(c))
		t.Logf("cache %4d docs: sim %.4f, analytic %.4f", c, sim, analytic)
		if rel := math.Abs(sim-analytic) / analytic; rel > 0.10 {
			t.Errorf("cache %d: sim miss %.4f vs analytic %.4f: rel %.3f > 0.10",
				c, sim, analytic, rel)
		}
	}
}

// TestShotNoiseStationaryLimitRecoversChe: freeze the churn — a fixed
// catalog of Zipf-weighted documents whose lifetime vastly exceeds the
// horizon is an IRM Zipf stream, and the simulated miss ratio must recover
// the stationary Che reference (queuemodel.LRUZipfMissChe) that PR 8's
// conformance suite pins for consistent hashing.
func TestShotNoiseStationaryLimitRecoversChe(t *testing.T) {
	const (
		m        = 20000
		alpha    = 0.8
		lifetime = 1e6
		horizon  = 1000.0
		requests = 300000.0
	)
	var hm float64
	for i := 1; i <= m; i++ {
		hm += math.Pow(float64(i), -alpha)
	}
	docs := make([]shotnoise.Doc, m)
	for i := range docs {
		p := math.Pow(float64(i+1), -alpha) / hm
		// Weight such that the in-window emission p*requests: the window
		// burns only horizon/lifetime of each document's total volume.
		docs[i] = shotnoise.Doc{Weight: requests * p * lifetime / horizon}
	}
	p := shotnoise.MustGenerate(shotnoise.Spec{
		Rate: 0, Horizon: horizon, Lifetime: lifetime, Seed: 5, Initial: docs,
	})
	tr := snTrace(p)
	for _, c := range []int{500, 2000} {
		sim := snMissRate(t, tr, c)
		che := queuemodel.LRUZipfMissChe(alpha, m, float64(c))
		t.Logf("cache %4d docs: sim %.4f, Che %.4f", c, sim, che)
		if rel := math.Abs(sim-che) / che; rel > 0.10 {
			t.Errorf("cache %d: sim miss %.4f vs Che %.4f: rel %.3f > 0.10", c, sim, che, rel)
		}
	}
}

// TestScheduleArrivals: the piecewise-constant open-loop schedule delivers
// its rate profile — a run under a two-segment schedule completes, reports
// open-loop latency, and a cycling one-period diurnal schedule reproduces
// the configured mean rate in aggregate throughput.
func TestScheduleArrivals(t *testing.T) {
	spec := trace.GenSpec{Name: "sched", Files: 2000, AvgFileKB: 16, Requests: 30000,
		AvgReqKB: 10, Alpha: 0.9, Seed: 3}
	tr := trace.MustGenerate(spec)

	sched := DiurnalSchedule(400, 0.6, 60, 12)
	if len(sched) != 12 {
		t.Fatalf("DiurnalSchedule built %d segments", len(sched))
	}
	var mean float64
	for _, seg := range sched {
		if seg.Duration <= 0 || seg.Rate <= 0 {
			t.Fatalf("bad segment %+v", seg)
		}
		mean += seg.Rate
	}
	mean /= float64(len(sched))
	if math.Abs(mean-400)/400 > 0.01 {
		t.Errorf("schedule mean rate %v, want 400", mean)
	}

	cfg := NewConfig(Traditional, 4, WithSeed(7), WithArrivalSchedule(sched))
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// The measured interval covers whole cycles plus change; aggregate
	// completion rate must sit near the schedule mean (the cluster keeps up
	// at this load), well below the trough/peak extremes.
	if res.Throughput < 400*(1-0.6) || res.Throughput > 400*(1+0.6) {
		t.Errorf("throughput %v outside the schedule's rate envelope [160, 640]", res.Throughput)
	}
	if math.Abs(res.Throughput-400)/400 > 0.15 {
		t.Errorf("throughput %v, want ~schedule mean 400", res.Throughput)
	}
	if res.LatencyP99 <= 0 {
		t.Error("open-loop run reported no latency")
	}

	// Malformed schedules fail Validate.
	for i, s := range [][]RateSegment{
		{{Duration: 0, Rate: 10}},
		{{Duration: 1, Rate: -1}},
		{{Duration: 1, Rate: 0}, {Duration: 2, Rate: 0}},
		{{Duration: math.Inf(1), Rate: 5}},
	} {
		c := NewConfig(Traditional, 4, WithArrivalSchedule(s))
		if err := c.Validate(); err == nil {
			t.Errorf("schedule %d accepted: %+v", i, s)
		}
	}

	// Zero-rate troughs are legal and are skipped whole by the sampler.
	gated := []RateSegment{{Duration: 0.05, Rate: 800}, {Duration: 0.05, Rate: 0}}
	cfg = NewConfig(Traditional, 4, WithSeed(7), WithArrivalSchedule(gated))
	if res, err = Run(cfg, tr); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-400)/400 > 0.15 {
		t.Errorf("gated schedule throughput %v, want ~400", res.Throughput)
	}

	if DiurnalSchedule(0, 0.5, 60, 8) != nil || DiurnalSchedule(100, 1, 60, 8) != nil ||
		DiurnalSchedule(100, 0.5, 0, 8) != nil || DiurnalSchedule(100, 0.5, 60, 0) != nil {
		t.Error("DiurnalSchedule accepted out-of-domain parameters")
	}
}

func init() {
	// Guard the conformance regime: ~5000 documents over the horizon with
	// a ~250k-request realization; the asserted cache points must stay well
	// inside the realized document population.
	if snConfDocRate*snConfHorizon != 5000 {
		panic(fmt.Sprintf("shot-noise conformance constants drifted: %v docs expected",
			snConfDocRate*snConfHorizon))
	}
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	_ "repro/internal/core" // registers the l2s policy
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/policy/policytest"
	"repro/internal/queuemodel"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/zipf"
)

// microOps is how many operations a layer microbenchmark times; scale
// shrinks it for the smoke test.
func microOps(o options) int { return scaled(1_000_000, o.scale, spanBatch) }

func nsPerOp(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

func nop() {}

// zipfSampleNs times popularity draws at the workload's catalogue size.
func zipfSampleNs(rec *recorder, parent int, spec trace.GenSpec, o options) float64 {
	if spec.Mode == trace.ModeChurn {
		return 0 // the shot-noise generator draws no Zipf ranks
	}
	d := zipf.New(spec.Alpha, int64(spec.Files))
	rng := rand.New(rand.NewSource(o.seed))
	n := microOps(o)
	var sink int64
	took := rec.batches(parent, "zipf.Sample", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += d.Sample(rng)
		}
	})
	_ = sink
	return nsPerOp(took, n)
}

// cacheReplay pushes the trace's (file, size) stream through one LRU per
// node, partitioned by file id, and returns ns per access, the hit ratio
// and evictions per request.
func cacheReplay(rec *recorder, parent int, tr *trace.Trace, nodes int, cacheBytes int64) (ns, hitRatio, evictions float64) {
	caches := make([]*cache.LRU, nodes)
	for i := range caches {
		caches[i] = cache.NewLRU(cacheBytes)
	}
	hits := 0
	took := rec.batches(parent, "cache.Access", tr.NumRequests(), func(lo, hi int) {
		for _, f := range tr.Requests[lo:hi] {
			if caches[int(f)%nodes].Access(f, tr.Sizes[f]) {
				hits++
			}
		}
	})
	var evicted uint64
	for _, c := range caches {
		evicted += c.Evictions()
	}
	n := float64(tr.NumRequests())
	return nsPerOp(took, tr.NumRequests()), float64(hits) / n, float64(evicted) / n
}

// policyReplay drives one distributor through the trace the way server.Run
// does — Initial, Service, OnAssign, and OnComplete once window requests
// are outstanding — against a fake environment, and returns ns per request
// and control messages per request.
func policyReplay(rec *recorder, parent int, spec string, tr *trace.Trace, nodes, window int, seed int64) (ns, msgs float64, err error) {
	env := policytest.New(nodes)
	files := tr.NumFiles()
	if r := tr.NumRequests(); r < files {
		files = r
	}
	d, err := policy.MustParseSpec(spec).Build(env, policy.Options{Files: files, Seed: seed})
	if err != nil {
		return 0, 0, fmt.Errorf("building policy %s: %w", spec, err)
	}
	type assigned struct {
		node int
		file policy.FileID
	}
	fifo := make([]assigned, window)
	head, held := 0, 0
	took := rec.batches(parent, "policy "+spec, tr.NumRequests(), func(lo, hi int) {
		for _, f := range tr.Requests[lo:hi] {
			if held == window {
				done := fifo[head]
				env.Loads[done.node]--
				d.OnComplete(done.node, done.file)
				held--
			}
			svc := d.Service(d.Initial(f), f)
			env.Loads[svc]++
			d.OnAssign(svc)
			fifo[head] = assigned{svc, f}
			head = (head + 1) % window
			held++
			env.Clock += 1e-4 // 10,000 requests per simulated second, so timed set shrinking runs
		}
	})
	n := tr.NumRequests()
	return nsPerOp(took, n), float64(env.Sent) / float64(n), nil
}

// calendarNs times Schedule+Step with depth events pending, the calendar's
// depth in a saturated run.
func calendarNs(rec *recorder, parent int, depth int, o options) float64 {
	e := sim.NewEngine()
	rng := rand.New(rand.NewSource(o.seed))
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = rng.Float64() * 10
	}
	for i := 0; i < depth; i++ {
		e.Schedule(delays[i%len(delays)], nop)
	}
	n := microOps(o)
	took := rec.batches(parent, "sim.Engine", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.Schedule(delays[i%len(delays)], nop)
			e.Step()
		}
	})
	return nsPerOp(took, n)
}

// resourceNs times Acquire+Step on the completion path — the bulk of a
// run's calendar traffic — shaped like a saturated run: every node has one
// bottleneck resource holding its whole window of queued jobs, whose
// completions land far in the future, and one idle resource whose
// completions are the next event. The calendar holds depth entries
// throughout.
func resourceNs(rec *recorder, parent int, nodes, depth int, o options) float64 {
	e := sim.NewEngine()
	slow := make([]*sim.Resource, nodes)
	fast := make([]*sim.Resource, nodes)
	for i := range slow {
		slow[i] = sim.NewResource(e, "disk", 1)
		fast[i] = sim.NewResource(e, "cpu", 1)
	}
	rng := rand.New(rand.NewSource(o.seed))
	node := make([]int, 4096)
	service := make([]float64, len(node))
	for i := range node {
		node[i] = rng.Intn(nodes)
		service[i] = 0.005 + 0.01*rng.Float64()
	}
	for i := 0; i < depth; i++ {
		slow[i%nodes].Acquire(service[i%len(service)], nil)
	}
	n := microOps(o)
	took := rec.batches(parent, "sim.Resource", n, func(lo, hi int) {
		for i := lo; i < hi; i += 2 {
			j := i % len(node)
			fast[node[j]].Acquire(0.0002, nil)
			e.Step()
			slow[node[j]].Acquire(service[j], nil)
			e.Step()
		}
	})
	return nsPerOp(took, n)
}

// broadcastNs times one control broadcast and its delivery on a registered
// fleet of the workload's size: 16 nodes take netsim's per-receiver path,
// 1024 the flat one.
func broadcastNs(rec *recorder, parent int, nodes int, o options) float64 {
	eng := sim.NewEngine()
	nw := netsim.New(eng, netsim.DefaultConfig())
	fleet := make([]*cluster.Node, nodes)
	for i := range fleet {
		fleet[i] = cluster.NewNode(eng, i, 1<<20)
	}
	nw.RegisterFleet(fleet)
	n := microOps(o) / 10
	took := rec.batches(parent, "netsim.Broadcast", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nw.Broadcast(fleet[i%nodes], fleet, 0.004, nil)
			eng.Run()
		}
	})
	return nsPerOp(took, n)
}

func histAddNs(rec *recorder, parent int, o options) float64 {
	rng := rand.New(rand.NewSource(o.seed))
	samples := make([]float64, 8192)
	for i := range samples {
		samples[i] = rng.ExpFloat64() * 0.05 // latency-shaped: tens of ms
	}
	h := stats.NewHistogram()
	n := microOps(o)
	took := rec.batches(parent, "stats.Histogram", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h.Add(samples[i%len(samples)])
		}
	})
	return nsPerOp(took, n)
}

// setSimCounts prints the exact per-request counts and simulated statistics
// of the system under test; they must not change under a pure speed-up.
func setSimCounts(m *metricSet, res server.Result, requests int) {
	n := float64(requests)
	m.set("sim.events_per_req", float64(res.Events)/n)
	m.set("netsim.msgs_per_req", float64(res.ControlMessages)/n)
	m.set("netsim.gossip_per_req", float64(res.GossipMessages)/n)
	m.set("server.sim_miss_rate", res.MissRate)
	m.set("server.sim_forward_frac", res.ForwardedFrac)
	m.set("server.sim_latency_p99_ms", res.LatencyP99*1e3)
}

// simLayers runs every layer replay of a sim workload and fills the
// per-layer metrics, including the ledger: each layer's unit cost times its
// operations per request, as a share of the measured host ns per request.
func simLayers(rec *recorder, parent int, w workload, o options, out *simOutcome, m *metricSet) error {
	tr := out.tr
	requests := float64(tr.NumRequests())
	systems := float64(len(w.systems))
	baseCfg := w.config(w.systems[0], o.seed, false)

	m.set("zipf.sample_ns", zipfSampleNs(rec, parent, out.spec, o))
	accessNs, hitRatio, evictions := cacheReplay(rec, parent, tr, w.nodes, baseCfg.CacheBytes)
	m.set("cache.access_ns", accessNs)
	m.set("cache.hit_ratio", hitRatio)
	m.set("cache.evictions_per_req", evictions)

	window := baseCfg.WindowPerNode * w.nodes
	var decideNs, ctrlMsgs float64
	for _, sys := range w.systems {
		ns, msgs, err := policyReplay(rec, parent, sys.policy, tr, w.nodes, window, o.seed)
		if err != nil {
			return err
		}
		decideNs += ns
		ctrlMsgs += msgs
	}
	m.set("policy.decide_ns", decideNs)
	m.set("policy.ctrl_msgs_per_req", ctrlMsgs)

	m.set("sim.event_ns", calendarNs(rec, parent, window, o))
	m.set("sim.resource_ns", resourceNs(rec, parent, w.nodes, window, o))
	m.set("netsim.broadcast_ns", broadcastNs(rec, parent, w.nodes, o))
	m.set("stats.hist_add_ns", histAddNs(rec, parent, o))

	// Counts and costs of the repetitions, summed over the workload's
	// systems like host_ns_per_req is.
	var events, broadcasts float64
	var mallocs, allocBytes uint64
	for _, r := range out.last {
		events += float64(r.res.Events)
		broadcasts += float64(r.res.GossipMessages) / float64(w.nodes-1)
		mallocs += r.mallocs
		allocBytes += r.allocBytes
	}
	tested := out.last[len(out.last)-1]
	setSimCounts(m, tested.res, tr.NumRequests())
	hostNs := summarize(out.hostNs)
	m.set("server.host_ns_per_event", hostNs.Median*requests/events)
	m.set("server.rep_spread_frac", hostNs.Spread)
	m.set("server.allocs_per_req", float64(mallocs)/requests)
	m.set("server.alloc_bytes_per_req", float64(allocBytes)/requests)

	shares := map[string]float64{
		"server.share.sim":    m.get("sim.resource_ns") * events / requests,
		"server.share.cache":  accessNs * systems,
		"server.share.policy": decideNs,
		"server.share.netsim": m.get("netsim.broadcast_ns") * broadcasts / requests,
		"server.share.stats":  m.get("stats.hist_add_ns") * systems,
	}
	unattributed := 1.0
	for name, ns := range shares {
		m.set(name, ns/hostNs.Median)
		unattributed -= ns / hostNs.Median
	}
	m.set("server.unattributed_frac", unattributed)

	// Construction cost: a run truncated to one request builds nodes,
	// caches and policy and simulates next to nothing.
	var fixed []float64
	for i := 0; i < 3; i++ {
		var ns float64
		for _, sys := range w.systems {
			cfg := w.config(sys, o.seed, w.observed)
			cfg.MaxRequests = 1
			id := rec.begin(parent, "server.Run fixed "+sys.name)
			t0 := time.Now()
			_, err := server.Run(cfg, tr)
			ns += float64(time.Since(t0).Nanoseconds())
			rec.end(id, nil)
			if err != nil {
				return fmt.Errorf("server.Run with one request: %w", err)
			}
		}
		fixed = append(fixed, ns)
	}
	m.set("server.fixed_ns", median(fixed))

	if w.observed {
		m.set("obs.samples_per_req", float64(tested.series)/requests)
		var bare []float64
		for i := 0; i < len(out.hostNs); i++ {
			r, err := measureRun(rec, parent, "uninstrumented", w.config(w.systems[0], o.seed, false), tr)
			if err != nil {
				return err
			}
			bare = append(bare, float64(r.wall.Nanoseconds())/requests)
		}
		m.set("obs.overhead_frac", (hostNs.Median-median(bare))/median(bare))
	}

	if w.name == paper16 {
		m.set("server.sim_throughput_rps.traditional", out.last[0].res.Throughput)
		m.set("server.sim_throughput_rps.lard", out.last[1].res.Throughput)

		// Distance from the Section 3 model at the measured operating point.
		p := queuemodel.DefaultParams()
		p.Nodes, p.CacheBytes = w.nodes, baseCfg.CacheBytes
		p.AvgFileKB = trace.Characterize(tr).AvgReqKB
		bound := p.Bound(1-tested.res.MissRate, tested.res.ForwardedFrac).RequestsPerSec
		m.set("queuemodel.bound_gap_frac", (bound-tested.res.Throughput)/bound)

		speedup, err := runnerSpeedup(rec, parent, w, o, tr)
		if err != nil {
			return err
		}
		m.set("runner.speedup_2w", speedup)
	}
	return nil
}

// runnerSpeedup runs the workload's systems through a one-worker and a
// two-worker pool and returns the ratio of the wall times.
func runnerSpeedup(rec *recorder, parent int, w workload, o options, tr *trace.Trace) (float64, error) {
	var walls [2]time.Duration
	for i, workers := range []int{1, 2} {
		jobs := make([]runner.Job, len(w.systems))
		for j, sys := range w.systems {
			jobs[j] = runner.Job{Key: sys.name, Config: w.config(sys, o.seed, false), Trace: tr}
		}
		id := rec.begin(parent, fmt.Sprintf("runner.Pool workers=%d", workers))
		t0 := time.Now()
		results := runner.NewPool(workers).Run(jobs)
		walls[i] = time.Since(t0)
		rec.end(id, nil)
		for _, r := range results {
			if r.Err != nil {
				return 0, fmt.Errorf("runner job %s: %w", r.Key, r.Err)
			}
		}
	}
	return float64(walls[0]) / float64(walls[1]), nil
}

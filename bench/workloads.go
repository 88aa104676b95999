package main

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// system is one server under test inside a workload.
type system struct {
	name   string // key in expected.json and in span names
	system server.System
	policy string // registry spec, also the input of the policy replay
}

// workload is one named set of inputs. The program under test receives only
// what spec and config generate from the seed.
type workload struct {
	name    string
	why     string
	nodes   int
	cacheMB int64 // 0 keeps the paper's 32 MB
	spec    func() (trace.GenSpec, error)
	systems []system // the last one is the system sim_throughput_rps reports

	arrivalRate float64 // > 0: open-loop Poisson arrivals instead of a saturation window
	observed    bool    // run with obs.Series and obs.Registry attached

	// native4 only: a live loopback cluster serves the trace; the first
	// warm requests of each repetition fill the caches untimed.
	native bool
	warm   int
}

func stationary(files, requests int) func() (trace.GenSpec, error) {
	return func() (trace.GenSpec, error) {
		return trace.GenSpec{Files: files, AvgFileKB: 6, AvgReqKB: 5, Alpha: 0.8, LocalityP: 0.3, Requests: requests}, nil
	}
}

var (
	l2s = system{name: "l2s", system: server.L2SServer, policy: "l2s"}

	workloads = []workload{
		{
			name:  paper16,
			why:   "The paper's Section 5 set-up (N=16, clarknet, traditional/LARD/L2S): hit-dominated, per-receiver broadcast path; sim, cache hits, server glue and stats do the work.",
			nodes: 16,
			spec: func() (trace.GenSpec, error) {
				s, err := trace.PaperTrace("clarknet")
				return s.Scaled(0.2), err
			},
			systems: []system{
				{name: "traditional", system: server.Traditional, policy: "traditional"},
				{name: "lard", system: server.LARDServer, policy: "lard"},
				l2s,
			},
		},
		{
			name:    miss16,
			why:     "N=16 L2S over a 1e6-file catalogue: 37% miss, 39 events/request, continuous eviction; the event calendar, sim.Resource and the cache's evict path dominate.",
			nodes:   16,
			spec:    stationary(1_000_000, 600_000),
			systems: []system{l2s},
		},
		{
			name:    gossip1024,
			why:     "N=1024 L2S, same trace as miss16: 300 gossip messages/request through netsim's flat broadcast; the only workload where gossip flattening and O(N) load views carry the run.",
			nodes:   1024,
			spec:    stationary(1_000_000, 600_000),
			systems: []system{l2s},
		},
		{
			name:    chash1024,
			why:     "N=1024 chash-bounded, same trace: zero gossip; the bypass twin of gossip1024, so a netsim change predicts no movement here and a ring-lookup change moves only this.",
			nodes:   1024,
			spec:    stationary(1_000_000, 600_000),
			systems: []system{{name: "chash-bounded", system: server.CustomServer, policy: "chash-bounded"}},
		},
		{
			name:  observed16,
			why:   "N=16 L2S, shot-noise churn trace, open-loop Poisson arrivals at 45% of saturation, obs.Series and obs.Registry attached: the only workload where instrumentation does real work.",
			nodes: 16,
			spec: func() (trace.GenSpec, error) {
				return trace.ParseGenSpec("churn:files=20000,filekb=16,reqs=1200000,lifetime=10")
			},
			systems:     []system{l2s},
			arrivalRate: 4000,
			observed:    true,
		},
		{
			name:    native4,
			why:     "Live 4-node loopback HTTP cluster, closed loop with 2 keep-alive callers: the only workload on the real data path (decide, hand-off, cache/store, write).",
			nodes:   4,
			cacheMB: 4,
			spec:    stationary(2000, 120_000),
			systems: []system{l2s},
			native:  true,
			warm:    20_000,
		},
	}
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// genSpec derives the workload's trace spec from the seed. scale shrinks
// catalogue and request count together (the smoke test runs at 1/100).
func (w workload) genSpec(seed int64, scale float64) (trace.GenSpec, error) {
	s, err := w.spec()
	if err != nil {
		return s, err
	}
	s.Name = w.name
	s.Seed = seed
	if scale != 1 {
		s = s.Scaled(scale)
		s.Files = scaled(s.Files, scale, 50)
		if s.HeadFiles > 0 {
			s.HeadFiles = scaled(s.HeadFiles, scale, 1)
		}
	}
	return s, nil
}

func scaled(n int, scale float64, floor int) int {
	if n = int(float64(n) * scale); n < floor {
		return floor
	}
	return n
}

// config builds the simulator configuration of one system. instruments
// attaches the obs recorders an observed workload runs with; a Series must
// not be shared between runs, so each call makes fresh ones.
func (w workload) config(sys system, seed int64, instruments bool) server.Config {
	opts := []server.Option{server.WithSeed(seed)}
	if sys.system == server.CustomServer {
		opts = append(opts, server.WithPolicy(sys.policy))
	}
	if w.cacheMB > 0 {
		opts = append(opts, server.WithCacheBytes(w.cacheMB<<20))
	}
	if w.arrivalRate > 0 {
		opts = append(opts, server.WithArrivalRate(w.arrivalRate))
	}
	if instruments {
		opts = append(opts, server.WithSeries(obs.NewSeries(0.1)), server.WithMetrics(obs.NewRegistry()))
	}
	return server.NewConfig(sys.system, w.nodes, opts...)
}

// setupBudget bounds the time a run spends repeating set-up to take its
// median: quick set-ups are timed three times, the 6 s catalogues once, so
// that all of the driver's runs fit its wall-clock cap.
const setupBudget = 2 * time.Second

// generated is a trace with the wall time in seconds of every set-up that
// produced it.
type generated struct {
	tr   *trace.Trace
	secs []float64
}

// traceCache holds a pass's latest trace: consecutive workloads that share a
// spec (miss16, gossip1024, chash1024) generate it once per pass and report
// the same set-up samples. It holds no older trace, which would sit on the
// heap of later workloads and move their peak_heap_mb with the GC's pacing.
type traceCache struct {
	key trace.GenSpec
	generated
}

// setup returns the spec's trace, generating it up to three times on first
// use to time the set-up. The traced pass generates once: it reports the
// time as trace.generate_s, not as setup_s.
func (c *traceCache) setup(rec *recorder, parent int, spec trace.GenSpec) (generated, error) {
	key := spec
	key.Name = "" // a label; it does not reach the generated requests
	if c.tr != nil && c.key == key {
		return c.generated, nil
	}
	*c = traceCache{} // free the previous trace first
	var g generated
	start := time.Now()
	for len(g.secs) < 3 {
		id := rec.begin(parent, "trace.Generate")
		t0 := time.Now()
		tr, err := trace.Generate(spec)
		d := time.Since(t0)
		rec.end(id, map[string]any{"requests": spec.Requests, "files": spec.Files})
		if err != nil {
			return g, fmt.Errorf("generating trace: %w", err)
		}
		g.tr, g.secs = tr, append(g.secs, d.Seconds())
		if rec != nil || time.Since(start) > setupBudget {
			break
		}
	}
	*c = traceCache{key, g}
	return g, nil
}

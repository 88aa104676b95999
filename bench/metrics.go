package main

import (
	"math"
	"sort"
)

// decl declares one metric. BENCHMARK.json repeats name, unit, better and
// (for end-to-end metrics) bound; the smoke test holds the two in step. The
// contract fixes the keys of BENCHMARK.json, so what each per-layer metric
// should move lives here and in README.md.
type decl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Floor is a worsening, in the metric's unit, that -compare always
	// allows: ISSUE 12 bounds setup_s by "20 % or 0.25 s, whichever is
	// larger", and a share of a sub-second set-up is within the host's noise.
	Floor float64
	// Exact marks an end-to-end metric that is deterministic for a seed:
	// -compare, which takes two passes at one seed, allows it no difference.
	// Its bound is for the driver, whose runs differ in seed.
	Exact bool
	// Moves names the end-to-end metric a per-layer metric should move; ""
	// marks a work count or simulated statistic that explains others and
	// must itself stay exact.
	Moves string
	// On lists the workloads where the metric carries weight. Elsewhere it
	// is still printed (0 for a layer the workload never enters).
	On []string
}

const (
	paper16    = "paper16"
	miss16     = "miss16"
	gossip1024 = "gossip1024"
	chash1024  = "chash1024"
	observed16 = "observed16"
	native4    = "native4"
)

var (
	simWorkloads = []string{paper16, miss16, gossip1024, chash1024, observed16}
	allWorkloads = []string{paper16, miss16, gossip1024, chash1024, observed16, native4}
	bigCatalog   = []string{miss16, gossip1024, chash1024}
)

// endToEnd is what a user of the system sees. Every workload reports every
// one (the contract requires it): native4's host_ns_per_req is its timed
// wall per request, and its sim_throughput_rps is the simulator's prediction
// for the same trace on the same four nodes.
var endToEnd = []decl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.25, On: allWorkloads},
	{Name: "host_ns_per_req", Unit: "ns", Better: "lower", Bound: 0.25, On: allWorkloads},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15, On: allWorkloads},
	{Name: "sim_throughput_rps", Unit: "req/s", Better: "higher", Bound: 0.03, Exact: true, On: allWorkloads},
}

var perLayer = []decl{
	{Name: "trace.generate_s", Unit: "s", Better: "lower", Moves: "setup_s", On: allWorkloads},
	{Name: "zipf.sample_ns", Unit: "ns", Better: "lower", Moves: "setup_s", On: bigCatalog},
	{Name: "shotnoise.generate_s", Unit: "s", Better: "lower", Moves: "setup_s", On: []string{observed16}},

	{Name: "cache.access_ns", Unit: "ns", Better: "lower", Moves: "host_ns_per_req", On: []string{miss16, paper16}},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", On: simWorkloads},
	{Name: "cache.evictions_per_req", Unit: "count", Better: "lower", On: simWorkloads},

	{Name: "policy.decide_ns", Unit: "ns", Better: "lower", Moves: "host_ns_per_req", On: []string{chash1024, gossip1024}},
	{Name: "policy.ctrl_msgs_per_req", Unit: "count", Better: "lower", On: simWorkloads},

	{Name: "sim.event_ns", Unit: "ns", Better: "lower", Moves: "host_ns_per_req", On: []string{miss16, paper16, observed16}},
	{Name: "sim.resource_ns", Unit: "ns", Better: "lower", Moves: "host_ns_per_req", On: []string{miss16, paper16, observed16}},
	{Name: "sim.events_per_req", Unit: "count", Better: "lower", On: allWorkloads},

	{Name: "netsim.broadcast_ns", Unit: "ns", Better: "lower", Moves: "host_ns_per_req", On: []string{gossip1024}},
	{Name: "netsim.msgs_per_req", Unit: "count", Better: "lower", On: allWorkloads},
	{Name: "netsim.gossip_per_req", Unit: "count", Better: "lower", On: allWorkloads},

	{Name: "stats.hist_add_ns", Unit: "ns", Better: "lower", Moves: "host_ns_per_req", On: simWorkloads},

	{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower", Moves: "host_ns_per_req", On: []string{observed16}},
	{Name: "obs.samples_per_req", Unit: "count", Better: "lower", On: []string{observed16}},

	{Name: "server.fixed_ns", Unit: "ns", Better: "lower", Moves: "host_ns_per_req", On: []string{gossip1024, chash1024}},
	{Name: "server.host_ns_per_event", Unit: "ns", Better: "lower", On: simWorkloads},
	{Name: "server.share.sim", Unit: "ratio", Better: "lower", On: simWorkloads},
	{Name: "server.share.cache", Unit: "ratio", Better: "lower", On: simWorkloads},
	{Name: "server.share.policy", Unit: "ratio", Better: "lower", On: simWorkloads},
	{Name: "server.share.netsim", Unit: "ratio", Better: "lower", On: simWorkloads},
	{Name: "server.share.stats", Unit: "ratio", Better: "lower", On: simWorkloads},
	{Name: "server.unattributed_frac", Unit: "ratio", Better: "lower", On: simWorkloads},
	{Name: "server.allocs_per_req", Unit: "count", Better: "lower", Moves: "peak_heap_mb", On: simWorkloads},
	{Name: "server.alloc_bytes_per_req", Unit: "B", Better: "lower", Moves: "peak_heap_mb", On: simWorkloads},
	{Name: "server.rep_spread_frac", Unit: "ratio", Better: "lower", On: simWorkloads},
	{Name: "server.sim_miss_rate", Unit: "ratio", Better: "lower", On: allWorkloads},
	{Name: "server.sim_forward_frac", Unit: "ratio", Better: "lower", On: allWorkloads},
	{Name: "server.sim_latency_p99_ms", Unit: "ms", Better: "lower", On: allWorkloads},
	{Name: "server.sim_throughput_rps.traditional", Unit: "req/s", Better: "higher", On: []string{paper16}},
	{Name: "server.sim_throughput_rps.lard", Unit: "req/s", Better: "higher", On: []string{paper16}},

	{Name: "queuemodel.bound_gap_frac", Unit: "ratio", Better: "lower", On: []string{paper16}},
	{Name: "runner.speedup_2w", Unit: "ratio", Better: "higher", On: []string{paper16}},

	{Name: "native.rps", Unit: "req/s", Better: "higher", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.lat_p50_us", Unit: "us", Better: "lower", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.lat_p99_us", Unit: "us", Better: "lower", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.lat_p999_us", Unit: "us", Better: "lower", On: []string{native4}},
	{Name: "native.lat_local_p50_us", Unit: "us", Better: "lower", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.lat_forwarded_p50_us", Unit: "us", Better: "lower", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.handoff_us", Unit: "us", Better: "lower", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.handler_files_us", Unit: "us", Better: "lower", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.handler_local_us", Unit: "us", Better: "lower", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.decide_us", Unit: "us", Better: "lower", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.store_get_ns", Unit: "ns", Better: "lower", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.rps_1node", Unit: "req/s", Better: "higher", On: []string{native4}},
	{Name: "native.hit_ratio", Unit: "ratio", Better: "higher", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.forward_frac", Unit: "ratio", Better: "lower", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.gossip_per_req", Unit: "count", Better: "lower", Moves: "host_ns_per_req", On: []string{native4}},
	{Name: "native.retries", Unit: "count", Better: "lower", On: []string{native4}},
	{Name: "native.failovers", Unit: "count", Better: "lower", On: []string{native4}},
	{Name: "native.peak_heap_mb", Unit: "MB", Better: "lower", Moves: "peak_heap_mb", On: []string{native4}},
	{Name: "native.trace_overhead_frac", Unit: "ratio", Better: "lower", On: []string{native4}},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values under declared names; set panics on a name the
// tables above do not declare, which only a bug in this package can cause.
type metricSet struct {
	values map[string]metric
}

func newMetricSet(decls []decl) *metricSet {
	m := &metricSet{values: make(map[string]metric, len(decls))}
	for _, d := range decls {
		m.values[d.Name] = metric{Unit: d.Unit}
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	cur, ok := m.values[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	cur.Value = v
	m.values[name] = cur
}

func (m *metricSet) get(name string) float64 { return m.values[name].Value }

// sampleStat summarizes the per-repetition samples behind one end-to-end
// metric; Spread is (max - min) / median, the run's own noise floor.
type sampleStat struct {
	Samples []float64 `json:"samples"`
	Min     float64   `json:"min"`
	Median  float64   `json:"median"`
	Max     float64   `json:"max"`
	Spread  float64   `json:"spread"`
}

func summarize(samples []float64) sampleStat {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	st := sampleStat{Samples: samples, Min: s[0], Median: median(s), Max: s[len(s)-1]}
	if st.Median != 0 {
		st.Spread = (st.Max - st.Min) / st.Median
	}
	return st
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of sorted, by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

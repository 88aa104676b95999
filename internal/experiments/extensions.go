package experiments

import (
	"fmt"
	"strings"

	"repro/internal/queuemodel"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/trace"
)

// PolicyComparison contrasts the full policy spectrum on one workload: the
// three servers of the paper's evaluation plus the strawmen its earlier
// sections discuss — strict locality by hashing (Section 1: "can produce
// severe load imbalance"), random arrival, and round-robin DNS with
// translation caching (Section 2: "can cause significant load imbalance").
// Every policy is constructed through the policy registry.
func PolicyComparison(p *runner.Pool, tr *trace.Trace, nodes int) ([]server.Result, string, error) {
	s := study{
		title: fmt.Sprintf("policy comparison on %s, %d nodes", tr.Name, nodes),
		trace: tr,
		cols:  []column{label("policy", 12), reqPerSec, missPct, fwdPct, imbalance, idlePct},
	}
	for _, name := range []string{"l2s", "lard", "traditional", "hashing", "random", "cached-dns"} {
		s.rows = append(s.rows, row{fmt.Sprintf("policies/%s/n=%d", name, nodes), name,
			server.NewConfig(server.CustomServer, nodes, server.WithPolicy(name))})
	}
	return s.run(p)
}

// PersistentStudy contrasts per-request connections (HTTP/1.0, the paper's
// evaluation setting) with persistent connections handled by back-end
// forwarding (the HTTP/1.1 adaptation Section 4 defers to Aron et al.).
// The headline effect: persistence multiplies LARD's front-end ceiling by
// the requests-per-connection factor, while L2S — which has no per-request
// front-end cost to amortize — holds its throughput and halves latency.
// Rows alternate http/1.0 and http/1.1 for l2s, lard and traditional.
func PersistentStudy(p *runner.Pool, tr *trace.Trace, nodes int, reqsPerConn float64) ([]server.Result, string, error) {
	s := study{
		title: fmt.Sprintf("persistent connections on %s, %d nodes, mean %.0f requests/connection",
			tr.Name, nodes, reqsPerConn),
		trace: tr,
		cols: []column{
			{"system", "%-12s", func(r server.Result) any { return r.System }},
			label("mode", 9), reqPerSec, fwdPct,
			{"p50 latency", "%9.2f ms", func(r server.Result) any { return r.LatencyP50 * 1000 }},
		},
	}
	for _, sys := range []server.System{server.L2SServer, server.LARDServer, server.Traditional} {
		s.add("persistent/"+sys.String(), "http/1.0", server.NewConfig(sys, nodes))
		s.add("persistent/"+sys.String(), "http/1.1", server.NewConfig(sys, nodes, server.WithPersistent(reqsPerConn)))
	}
	return s.run(p)
}

// LatencyStudy drives the simulator in open-loop mode across offered loads
// and compares the measured mean response time with the analytic model's
// M/M/1-network Latency at the same loads — the response-time counterpart
// of the throughput bounds (the paper focuses on throughput because WAN
// latencies dwarf server latencies; this study validates the simulator
// against the model's queueing formulas anyway).
func LatencyStudy(p *runner.Pool, tr *trace.Trace, nodes int, rates []float64) (Figure, string, error) {
	params, hlc, q := modelAt(trace.Characterize(tr), nodes, DefaultOptions(), ReuseCurve(tr).HitRate)
	s := &study{trace: tr}
	for _, rate := range rates {
		s.add("latency/l2s", fmt.Sprintf("rate=%g", rate), server.NewConfig(server.L2SServer, nodes, server.WithArrivalRate(rate)))
	}
	res, err := runStudies(p, s)
	if err != nil {
		return Figure{}, "", err
	}
	fig := Figure{
		ID:     "latency-" + tr.Name,
		Title:  fmt.Sprintf("mean response time vs offered load, %s, %d nodes (ms)", tr.Name, nodes),
		XLabel: "req/s",
		X:      rates,
		Series: []Series{{Label: "simulated"}, {Label: "model"}},
	}
	for i, rate := range rates {
		fig.Series[0].Values = append(fig.Series[0].Values, res[0][i].LatencyMean*1000)
		fig.Series[1].Values = append(fig.Series[1].Values, params.Latency(rate, hlc, q)*1000)
	}
	return fig, fig.Render(), nil
}

// HeterogeneousStudy relaxes the paper's "all cluster nodes are equally
// powerful" assumption: half the cluster runs at full speed, half at the
// given fraction. Connection-count load balancing adapts automatically —
// slower nodes hold their T-connection budget longer, so new work drifts
// to the fast nodes — which is why both L2S and LARD degrade gracefully
// while a speed-oblivious policy would track the slowest node. Rows
// alternate homogeneous and heterogeneous for l2s, lard and traditional.
func HeterogeneousStudy(p *runner.Pool, tr *trace.Trace, nodes int, slowFactor float64) ([]server.Result, string, error) {
	half := server.Tiered(server.NodeProfile{CPUSpeed: 1, DiskSpeed: 1},
		server.NodeProfile{CPUSpeed: slowFactor, DiskSpeed: 1}, nodes/2)
	s := study{
		title: fmt.Sprintf("heterogeneous cluster on %s, %d nodes", tr.Name, nodes),
		trace: tr,
		cols:  []column{label("configuration", 24), reqPerSec, imbalance},
	}
	for _, sys := range []server.System{server.L2SServer, server.LARDServer, server.Traditional} {
		s.add("heterogeneous", sys.String()+"/homogeneous", server.NewConfig(sys, nodes))
		s.add("heterogeneous", fmt.Sprintf("%s/half at %.0f%%", sys, slowFactor*100),
			server.NewConfig(sys, nodes, half))
	}
	return s.run(p)
}

// TwoTierStudy models a common upgrade path the paper's homogeneity
// assumption excludes: a small tier of fast machines with SSD-class disks
// and extra memory in front of a larger tier of older disk-bound nodes.
// Each paper policy runs next to its capacity-weighted variant on the same
// tiered cluster, so the table isolates
// what speed-awareness in the distribution decision is worth. The header
// reports the heterogeneous model bound for the tiered hardware as the
// capacity yardstick.
func TwoTierStudy(p *runner.Pool, tr *trace.Trace, nodes, fastNodes int) ([]server.Result, string, error) {
	if fastNodes < 1 || fastNodes >= nodes {
		return nil, "", fmt.Errorf("experiments: two-tier split %d of %d nodes", fastNodes, nodes)
	}
	tiers := server.Tiered(server.NodeProfile{CPUSpeed: 2, DiskSpeed: 8, CacheBytes: 64 << 20},
		server.NodeProfile{CPUSpeed: 1, DiskSpeed: 1, CacheBytes: 32 << 20}, fastNodes)
	s := study{trace: tr, cols: []column{label("policy", 16), reqPerSec, missPct, fwdPct, imbalance}}
	for _, name := range []string{"l2s", "l2s-weighted", "lard", "lard-weighted", "traditional", "wlc"} {
		s.add("twotier", name, server.NewConfig(server.CustomServer, nodes, server.WithPolicy(name), tiers))
	}
	bound := profileBound(tr, s.rows[0].cfg.Profiles)
	s.title = fmt.Sprintf("two-tier cluster on %s: %d fast (2x cpu, 8x disk, 64 MB) + %d slow nodes\n"+
		"  model bound %.0f req/s (hit %.2f, bottleneck %v)",
		tr.Name, fastNodes, nodes-fastNodes, bound.RequestsPerSec, bound.Hit, bound.Bottleneck)
	return s.run(p)
}

// profileBound evaluates the heterogeneous locality-conscious model bound
// for a profiled cluster on a characterized workload.
func profileBound(tr *trace.Trace, profiles []server.NodeProfile) queuemodel.HeteroThroughput {
	ch := trace.Characterize(tr)
	params := queuemodel.DefaultParams()
	params.Nodes = len(profiles)
	params.AvgFileKB = ch.AvgReqKB
	return params.HeterogeneousConsciousForCatalog(profiles, int64(ch.CatalogFiles))
}

// SlowNodeStudy measures how far one degraded machine drags a cluster: a
// uniform baseline, the same cluster with node `slowNode` at the given
// speed fraction, and — reusing the fault injector — the degraded node
// crashing mid-run, which for a weighted policy should *recover* capacity
// because the failover redistribution stops routing to the straggler.
// Rows are the three scenarios for each of l2s, l2s-weighted and wlc.
func SlowNodeStudy(p *runner.Pool, tr *trace.Trace, nodes, slowNode int, slowFactor float64) ([]server.Result, string, error) {
	if slowNode < 0 || slowNode >= nodes {
		return nil, "", fmt.Errorf("experiments: slow node %d of %d", slowNode, nodes)
	}
	profiles := server.UniformProfiles(nodes, server.NodeProfile{CPUSpeed: 1, DiskSpeed: 1})
	profiles[slowNode] = server.NodeProfile{CPUSpeed: slowFactor, DiskSpeed: slowFactor}

	s := study{
		title: fmt.Sprintf("slow-node study on %s, %d nodes: node %d at %.0f%% speed",
			tr.Name, nodes, slowNode, slowFactor*100),
		trace: tr,
		cols:  []column{label("configuration", 30), reqPerSec, imbalance, fwdPct},
	}
	for _, policy := range []string{"l2s", "l2s-weighted", "wlc"} {
		cfg := func(opts ...server.Option) server.Config {
			return server.NewConfig(server.CustomServer, nodes, append([]server.Option{server.WithPolicy(policy)}, opts...)...)
		}
		s.add("slownode", policy+"/uniform", cfg())
		s.add("slownode", policy+"/one slow node", cfg(server.WithProfiles(profiles...)))
		s.add("slownode", policy+"/slow node crashes",
			cfg(server.WithProfiles(profiles...), server.WithFailure(slowNode, 0.5)))
	}
	return s.run(p)
}

// Section6Study compares the original LARD front-end, the dispatcher-based
// variant of Aron et al. (USENIX 2000) that the paper's Section 6
// discusses, and L2S, in that row order. The dispatcher escapes the
// accept/parse ceiling but keeps a central chokepoint; the paper's
// argument — "L2S has none of these problems" — shows up as the ordering
// of the three rows.
func Section6Study(p *runner.Pool, tr *trace.Trace, nodes int) ([]server.Result, string, error) {
	s := study{
		title: fmt.Sprintf("section 6: front-end LARD vs dispatcher LARD vs L2S (%s, %d nodes)", tr.Name, nodes),
		trace: tr,
		cols:  []column{label("system", 14), reqPerSec, missPct, fwdPct, idlePct},
	}
	for _, sys := range []server.System{server.LARDServer, server.LARDDispatcher, server.L2SServer} {
		s.add("section6", sys.String(), server.NewConfig(sys, nodes))
	}
	return s.run(p)
}

// noop leaves the paper's configuration untouched.
func noop(*server.Config) {}

// sensitivityVariants are the ablation's grid points, grouped into its
// tables in print order: a group, a label, and the configuration delta
// each applies on top of the paper's L2S setup.
var sensitivityVariants = []struct {
	group, name string
	opt         server.Option
}{
	{"broadcast-delta", "delta=1", server.WithPolicy("l2s:delta=1")},
	{"broadcast-delta", "delta=2", server.WithPolicy("l2s:delta=2")},
	{"broadcast-delta", "delta=4 (paper)", noop},
	{"broadcast-delta", "delta=8", server.WithPolicy("l2s:delta=8")},
	{"broadcast-delta", "delta=16", server.WithPolicy("l2s:delta=16")},

	{"messaging-overhead", "0.5x", func(c *server.Config) { c.Net.MsgCPU /= 2; c.Net.MsgNI /= 2 }},
	{"messaging-overhead", "1x (paper)", noop},
	{"messaging-overhead", "2x", func(c *server.Config) { c.Net.MsgCPU *= 2; c.Net.MsgNI *= 2 }},
	{"messaging-overhead", "4x", func(c *server.Config) { c.Net.MsgCPU *= 4; c.Net.MsgNI *= 4 }},

	{"network", "1us switch (paper)", noop},
	{"network", "10us switch", func(c *server.Config) { c.Net.SwitchLatency = 10e-6 }},
	{"network", "100us switch", func(c *server.Config) { c.Net.SwitchLatency = 100e-6 }},
	{"network", "half bandwidth", func(c *server.Config) { c.Net.LinkKBps /= 2 }},
	{"network", "quarter bandwidth", func(c *server.Config) { c.Net.LinkKBps /= 4 }},

	{"staleness", "gossip (paper)", noop},
	{"staleness", "oracle loads", server.WithPolicy("l2s:oracle=true")},

	{"thresholds", "T=10 t=5", server.WithPolicy("l2s:T=10,t=5")},
	{"thresholds", "T=20 t=10 (paper)", noop},
	{"thresholds", "T=40 t=20", server.WithPolicy("l2s:T=40,t=20")},
	{"thresholds", "T=80 t=40", server.WithPolicy("l2s:T=80,t=40")},

	{"window", "w=6", func(c *server.Config) { c.WindowPerNode = 6 }},
	{"window", "w=12 (default)", noop},
	{"window", "w=18", func(c *server.Config) { c.WindowPerNode = 18 }},
	{"window", "w=24", func(c *server.Config) { c.WindowPerNode = 24 }},
}

// L2SSensitivity reproduces the Section 5.2 summary — "the performance of
// L2S is only slightly affected by reasonable parameters of frequency of
// broadcasts, messaging overhead, and network latency and bandwidth" — and
// the design-choice ablations called out in DESIGN.md (gossip staleness,
// thresholds, saturation window). Each group is one study; all of them run
// as one flat grid on the pool. The results map each group to its rows'
// results, in sensitivityVariants order.
func L2SSensitivity(p *runner.Pool, tr *trace.Trace, nodes int) (map[string][]server.Result, string, error) {
	var studies []*study
	for _, v := range sensitivityVariants {
		if len(studies) == 0 || studies[len(studies)-1].title != "sensitivity/"+v.group {
			studies = append(studies, &study{
				title: "sensitivity/" + v.group,
				trace: tr,
				cols: []column{label("variant", 24),
					{"req/s", "%12.0f", func(r server.Result) any { return r.Throughput }},
					missPct, fwdPct,
					{"messages", "%10d", func(r server.Result) any { return r.ControlMessages }}},
			})
		}
		studies[len(studies)-1].add("sensitivity/"+v.group, v.name, server.NewConfig(server.L2SServer, nodes, v.opt))
	}
	results, err := runStudies(p, studies...)
	if err != nil {
		return nil, "", err
	}
	out := make(map[string][]server.Result)
	var b strings.Builder
	for i, s := range studies {
		out[strings.TrimPrefix(s.title, "sensitivity/")] = results[i]
		b.WriteString(s.render(results[i]))
	}
	return out, b.String(), nil
}

// FailoverStudy quantifies the availability claim of Section 4: crash one
// node mid-run and compare how much service survives under L2S (any node)
// versus LARD (the front-end). The L2S run also counts its completions in
// 0.25 s buckets, charted under the table: the time series behind the
// claim.
func FailoverStudy(p *runner.Pool, tr *trace.Trace, nodes int) ([]server.Result, string, error) {
	const bucket = 0.25
	s := study{
		title: "failover: one node crashes halfway through the run",
		trace: tr,
		cols: []column{label("", 26),
			{"", "served=%5.1f%%", func(r server.Result) any {
				return float64(r.Completed) / float64(r.Completed+r.Aborted) * 100
			}},
			{"", " aborted=%d", func(r server.Result) any { return r.Aborted }},
			{"", " throughput=%.0f", func(r server.Result) any { return r.Throughput }}},
	}
	s.add("failover", "l2s, node 3 fails", server.NewConfig(server.L2SServer, nodes,
		server.WithFailure(3, 0.5), server.WithTimelineBucket(bucket)))
	s.add("failover", "lard, back-end 3 fails", server.NewConfig(server.LARDServer, nodes, server.WithFailure(3, 0.5)))
	s.add("failover", "lard, front-end fails", server.NewConfig(server.LARDServer, nodes, server.WithFailure(0, 0.5)))
	res, text, err := s.run(p)
	if err != nil {
		return nil, "", err
	}
	fig := Figure{
		ID:     "failover-timeline",
		Title:  fmt.Sprintf("L2S throughput while node 3 crashes (%s, %d nodes)", tr.Name, nodes),
		XLabel: "time_s",
		Series: []Series{{Label: "l2s", Values: res[0].Timeline}},
	}
	for i := range res[0].Timeline {
		fig.X = append(fig.X, float64(i)*bucket)
	}
	return res, text + "\n" + fig.Chart(60, 12), nil
}

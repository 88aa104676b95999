package experiments

import (
	"fmt"
	"strings"

	"repro/internal/queuemodel"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/trace"
)

// PolicyRow is one line of the arrival/distribution policy comparison.
type PolicyRow struct {
	Policy     string
	Throughput float64
	MissRate   float64
	Forwarded  float64
	Imbalance  float64
	CPUIdle    float64
}

// policyRow condenses a result into the comparison columns.
func policyRow(name string, r server.Result) PolicyRow {
	return PolicyRow{
		Policy:     name,
		Throughput: r.Throughput,
		MissRate:   r.MissRate,
		Forwarded:  r.ForwardedFrac,
		Imbalance:  r.LoadImbalance,
		CPUIdle:    r.CPUIdle,
	}
}

// runRows executes one job per row label and condenses the results.
func runRows(p *runner.Pool, jobs []runner.Job, label func(i int, r server.Result) string) ([]PolicyRow, error) {
	var rows []PolicyRow
	for i, jr := range p.Run(jobs) {
		if jr.Err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", jr.Key, jr.Err)
		}
		rows = append(rows, policyRow(label(i, jr.Result), jr.Result))
	}
	return rows, nil
}

// PolicyComparison contrasts the full policy spectrum on one workload: the
// three servers of the paper's evaluation plus the strawmen its earlier
// sections discuss — strict locality by hashing (Section 1: "can produce
// severe load imbalance"), random arrival, and round-robin DNS with
// translation caching (Section 2: "can cause significant load imbalance").
// Every policy is constructed through the policy registry.
func PolicyComparison(p *runner.Pool, tr *trace.Trace, nodes int) ([]PolicyRow, string, error) {
	names := []string{"l2s", "lard", "traditional", "hashing", "random", "cached-dns"}
	jobs := make([]runner.Job, len(names))
	for i, name := range names {
		jobs[i] = runner.Job{
			Key:    fmt.Sprintf("policies/%s/n=%d", name, nodes),
			Config: server.NewConfig(server.CustomServer, nodes, server.WithPolicy(name)),
			Trace:  tr,
		}
	}
	rows, err := runRows(p, jobs, func(i int, _ server.Result) string { return names[i] })
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "policy comparison on %s, %d nodes\n", tr.Name, nodes)
	fmt.Fprintf(&b, "  %-12s %10s %8s %8s %10s %8s\n",
		"policy", "req/s", "miss%", "fwd%", "imbalance", "idle%")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %10.0f %8.1f %8.1f %10.2f %8.1f\n",
			r.Policy, r.Throughput, r.MissRate*100, r.Forwarded*100, r.Imbalance, r.CPUIdle*100)
	}
	return rows, b.String(), nil
}

// PersistentRow is one line of the HTTP/1.0-versus-HTTP/1.1 study.
type PersistentRow struct {
	System     string
	Mode       string
	Throughput float64
	Forwarded  float64
	LatencyP50 float64
}

// PersistentStudy contrasts per-request connections (HTTP/1.0, the paper's
// evaluation setting) with persistent connections handled by back-end
// forwarding (the HTTP/1.1 adaptation Section 4 defers to Aron et al.).
// The headline effect: persistence multiplies LARD's front-end ceiling by
// the requests-per-connection factor, while L2S — which has no per-request
// front-end cost to amortize — holds its throughput and halves latency.
func PersistentStudy(p *runner.Pool, tr *trace.Trace, nodes int, reqsPerConn float64) ([]PersistentRow, string, error) {
	type study struct {
		sys        server.System
		persistent bool
	}
	var cases []study
	var jobs []runner.Job
	for _, sys := range []server.System{server.L2SServer, server.LARDServer, server.Traditional} {
		for _, persistent := range []bool{false, true} {
			opts := []server.Option{}
			mode := "http/1.0"
			if persistent {
				opts = append(opts, server.WithPersistent(reqsPerConn))
				mode = "http/1.1"
			}
			cases = append(cases, study{sys, persistent})
			jobs = append(jobs, runner.Job{
				Key:    fmt.Sprintf("persistent/%s/%s", sys, mode),
				Config: server.NewConfig(sys, nodes, opts...),
				Trace:  tr,
			})
		}
	}
	var rows []PersistentRow
	for i, jr := range p.Run(jobs) {
		if jr.Err != nil {
			return nil, "", fmt.Errorf("experiments: %s: %w", jr.Key, jr.Err)
		}
		mode := "http/1.0"
		if cases[i].persistent {
			mode = "http/1.1"
		}
		rows = append(rows, PersistentRow{
			System:     jr.Result.System,
			Mode:       mode,
			Throughput: jr.Result.Throughput,
			Forwarded:  jr.Result.ForwardedFrac,
			LatencyP50: jr.Result.LatencyP50,
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "persistent connections on %s, %d nodes, mean %.0f requests/connection\n",
		tr.Name, nodes, reqsPerConn)
	fmt.Fprintf(&b, "  %-12s %-9s %10s %8s %12s\n", "system", "mode", "req/s", "fwd%", "p50 latency")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %-9s %10.0f %8.1f %9.2f ms\n",
			r.System, r.Mode, r.Throughput, r.Forwarded*100, r.LatencyP50*1000)
	}
	return rows, b.String(), nil
}

// LatencyStudy drives the simulator in open-loop mode across offered loads
// and compares the measured mean response time with the analytic model's
// M/M/1-network Latency at the same loads — the response-time counterpart
// of the throughput bounds (the paper focuses on throughput because WAN
// latencies dwarf server latencies; this study validates the simulator
// against the model's queueing formulas anyway).
func LatencyStudy(p *runner.Pool, tr *trace.Trace, nodes int, rates []float64) (Figure, string, error) {
	ch := trace.Characterize(tr)
	opts := DefaultOptions()
	params := queuemodelParams(ch, nodes, opts)
	hlc := HitRateAtCapacity(tr, int64(params.TotalConsciousCache()))
	h := HitRateAtCapacity(tr, int64(opts.Replication*float64(opts.CacheBytes)))

	jobs := make([]runner.Job, len(rates))
	for i, rate := range rates {
		jobs[i] = runner.Job{
			Key:    fmt.Sprintf("latency/l2s/rate=%g", rate),
			Config: server.NewConfig(server.L2SServer, nodes, server.WithArrivalRate(rate)),
			Trace:  tr,
		}
	}

	fig := Figure{
		ID:     "latency-" + tr.Name,
		Title:  fmt.Sprintf("mean response time vs offered load, %s, %d nodes (ms)", tr.Name, nodes),
		XLabel: "req/s",
		YLabel: "latency ms",
	}
	var sim, model []float64
	for i, jr := range p.Run(jobs) {
		if jr.Err != nil {
			return Figure{}, "", fmt.Errorf("experiments: %s: %w", jr.Key, jr.Err)
		}
		rate := rates[i]
		fig.X = append(fig.X, rate)
		sim = append(sim, jr.Result.LatencyMean*1000)
		model = append(model, params.Latency(rate, hlc, params.ForwardFraction(h))*1000)
	}
	fig.Series = []Series{
		{Label: "simulated", Values: sim},
		{Label: "model", Values: model},
	}
	return fig, fig.Render(), nil
}

// queuemodelParams instantiates the model for a characterized workload.
func queuemodelParams(ch trace.Characteristics, nodes int, opts Options) queuemodel.Params {
	p := queuemodel.DefaultParams()
	p.Nodes = nodes
	p.CacheBytes = opts.CacheBytes
	p.Replication = opts.Replication
	p.AvgFileKB = ch.AvgReqKB
	return p
}

// HeterogeneousStudy relaxes the paper's "all cluster nodes are equally
// powerful" assumption: half the cluster runs at full speed, half at the
// given fraction. Connection-count load balancing adapts automatically —
// slower nodes hold their T-connection budget longer, so new work drifts
// to the fast nodes — which is why both L2S and LARD degrade gracefully
// while a speed-oblivious policy would track the slowest node.
func HeterogeneousStudy(p *runner.Pool, tr *trace.Trace, nodes int, slowFactor float64) ([]PolicyRow, string, error) {
	profiles := make([]server.NodeProfile, nodes)
	for i := range profiles {
		profiles[i] = server.NodeProfile{CPUSpeed: 1, DiskSpeed: 1}
		if i >= nodes/2 {
			profiles[i].CPUSpeed = slowFactor
		}
	}
	var names []string
	var jobs []runner.Job
	for _, sys := range []server.System{server.L2SServer, server.LARDServer, server.Traditional} {
		for _, het := range []bool{false, true} {
			opts := []server.Option{}
			name := sys.String() + "/homogeneous"
			if het {
				opts = append(opts, server.WithProfiles(profiles...))
				name = fmt.Sprintf("%s/half at %.0f%%", sys, slowFactor*100)
			}
			names = append(names, name)
			jobs = append(jobs, runner.Job{
				Key:    "heterogeneous/" + name,
				Config: server.NewConfig(sys, nodes, opts...),
				Trace:  tr,
			})
		}
	}
	rows, err := runRows(p, jobs, func(i int, _ server.Result) string { return names[i] })
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "heterogeneous cluster on %s, %d nodes\n", tr.Name, nodes)
	fmt.Fprintf(&b, "  %-24s %10s %10s\n", "configuration", "req/s", "imbalance")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %10.0f %10.2f\n", r.Policy, r.Throughput, r.Imbalance)
	}
	return rows, b.String(), nil
}

// TwoTierStudy models a common upgrade path the paper's homogeneity
// assumption excludes: a small tier of fast machines with SSD-class disks
// and extra memory in front of a larger tier of older disk-bound nodes.
// Each paper policy runs next to its capacity-weighted variant on the same
// tiered cluster, so the table isolates what speed-awareness in the
// distribution decision is worth. The header reports the heterogeneous
// model bound for the tiered hardware as the capacity yardstick.
func TwoTierStudy(p *runner.Pool, tr *trace.Trace, nodes, fastNodes int) ([]PolicyRow, string, error) {
	if fastNodes < 1 || fastNodes >= nodes {
		return nil, "", fmt.Errorf("experiments: two-tier split %d of %d nodes", fastNodes, nodes)
	}
	fast := server.NodeProfile{CPUSpeed: 2, DiskSpeed: 8, CacheBytes: 64 << 20}
	slow := server.NodeProfile{CPUSpeed: 1, DiskSpeed: 1, CacheBytes: 32 << 20}
	profiles := make([]server.NodeProfile, nodes)
	for i := range profiles {
		if i < fastNodes {
			profiles[i] = fast
		} else {
			profiles[i] = slow
		}
	}

	rows, err := weightedPolicyRows(p, tr, "twotier", profiles)
	if err != nil {
		return nil, "", err
	}

	bound := profileBound(tr, profiles)
	var b strings.Builder
	fmt.Fprintf(&b, "two-tier cluster on %s: %d fast (2x cpu, 8x disk, 64 MB) + %d slow nodes\n",
		tr.Name, fastNodes, nodes-fastNodes)
	fmt.Fprintf(&b, "  model bound %.0f req/s (hit %.2f, bottleneck %v)\n",
		bound.RequestsPerSec, bound.Hit, bound.Bottleneck)
	b.WriteString(weightedPolicyTable(rows))
	return rows, b.String(), nil
}

// ProfileStudy runs each paper policy next to its capacity-weighted
// variant on caller-supplied hardware (the cmd/experiments -profiles
// flag): the profile set fixes the cluster size.
func ProfileStudy(p *runner.Pool, tr *trace.Trace, profiles []server.NodeProfile) ([]PolicyRow, string, error) {
	if len(profiles) == 0 {
		return nil, "", fmt.Errorf("experiments: profile study needs at least one node profile")
	}
	rows, err := weightedPolicyRows(p, tr, "profiles", profiles)
	if err != nil {
		return nil, "", err
	}
	bound := profileBound(tr, profiles)
	var b strings.Builder
	fmt.Fprintf(&b, "profiled cluster on %s, %d nodes\n", tr.Name, len(profiles))
	fmt.Fprintf(&b, "  model bound %.0f req/s (hit %.2f, bottleneck %v)\n",
		bound.RequestsPerSec, bound.Hit, bound.Bottleneck)
	b.WriteString(weightedPolicyTable(rows))
	return rows, b.String(), nil
}

// weightedPolicyRows runs the paper policies and their capacity-weighted
// variants on one profiled cluster.
func weightedPolicyRows(p *runner.Pool, tr *trace.Trace, prefix string, profiles []server.NodeProfile) ([]PolicyRow, error) {
	policies := []string{"l2s", "l2s-weighted", "lard", "lard-weighted", "traditional", "wlc"}
	jobs := make([]runner.Job, len(policies))
	for i, name := range policies {
		jobs[i] = runner.Job{
			Key: prefix + "/" + name,
			Config: server.NewConfig(server.CustomServer, len(profiles),
				server.WithPolicy(name),
				server.WithProfiles(profiles...)),
			Trace: tr,
		}
	}
	return runRows(p, jobs, func(i int, _ server.Result) string { return policies[i] })
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

func weightedPolicyTable(rows []PolicyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-16s %10s %8s %8s %10s\n", "policy", "req/s", "miss%", "fwd%", "imbalance")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-16s %10.0f %8.1f %8.1f %10.2f\n",
			r.Policy, r.Throughput, r.MissRate*100, r.Forwarded*100, r.Imbalance)
	}
	return b.String()
}

// SlowNodeStudy measures how far one degraded machine drags a cluster: a
// uniform baseline, the same cluster with node `slowNode` at the given
// speed fraction, and — reusing the fault injector — the degraded node
// crashing mid-run, which for a weighted policy should *recover* capacity
// because the failover redistribution stops routing to the straggler.
func SlowNodeStudy(p *runner.Pool, tr *trace.Trace, nodes, slowNode int, slowFactor float64) ([]PolicyRow, string, error) {
	if slowNode < 0 || slowNode >= nodes {
		return nil, "", fmt.Errorf("experiments: slow node %d of %d", slowNode, nodes)
	}
	profiles := make([]server.NodeProfile, nodes)
	for i := range profiles {
		profiles[i] = server.NodeProfile{CPUSpeed: 1, DiskSpeed: 1}
	}
	profiles[slowNode] = server.NodeProfile{CPUSpeed: slowFactor, DiskSpeed: slowFactor}

	scenarios := []struct {
		name string
		opts []server.Option
	}{
		{"uniform", nil},
		{"one slow node", []server.Option{server.WithProfiles(profiles...)}},
		{"slow node crashes", []server.Option{
			server.WithProfiles(profiles...),
			server.WithFailure(slowNode, 0.5),
		}},
	}
	var names []string
	var jobs []runner.Job
	for _, policy := range []string{"l2s", "l2s-weighted", "wlc"} {
		for _, sc := range scenarios {
			opts := append([]server.Option{server.WithPolicy(policy)}, sc.opts...)
			names = append(names, policy+"/"+sc.name)
			jobs = append(jobs, runner.Job{
				Key:    "slownode/" + policy + "/" + sc.name,
				Config: server.NewConfig(server.CustomServer, nodes, opts...),
				Trace:  tr,
			})
		}
	}
	rows, err := runRows(p, jobs, func(i int, _ server.Result) string { return names[i] })
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "slow-node study on %s, %d nodes: node %d at %.0f%% speed\n",
		tr.Name, nodes, slowNode, slowFactor*100)
	fmt.Fprintf(&b, "  %-30s %10s %10s %8s\n", "configuration", "req/s", "imbalance", "fwd%")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-30s %10.0f %10.2f %8.1f\n",
			r.Policy, r.Throughput, r.Imbalance, r.Forwarded*100)
	}
	return rows, b.String(), nil
}

// FailoverTimeline records throughput over time while one L2S node
// crashes mid-run, producing the time series behind the availability
// claim (rendered with Figure.Chart in cmd/experiments).
func FailoverTimeline(tr *trace.Trace, nodes, failNode int) (Figure, error) {
	const bucket = 0.25
	cfg := server.NewConfig(server.L2SServer, nodes,
		server.WithFailure(failNode, 0.5),
		server.WithTimelineBucket(bucket))
	r, err := server.Run(cfg, tr)
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "failover-timeline",
		Title:  fmt.Sprintf("L2S throughput while node %d crashes (%s, %d nodes)", failNode, tr.Name, nodes),
		XLabel: "time_s",
		YLabel: "req/s",
	}
	vals := make([]float64, len(r.Timeline))
	copy(vals, r.Timeline)
	for i := range vals {
		fig.X = append(fig.X, float64(i)*bucket)
	}
	fig.Series = []Series{{Label: "l2s", Values: vals}}
	return fig, nil
}

// Section6Study compares the original LARD front-end, the dispatcher-based
// variant of Aron et al. (USENIX 2000) that the paper's Section 6
// discusses, and L2S. The dispatcher escapes the accept/parse ceiling but
// keeps a central chokepoint; the paper's argument — "L2S has none of
// these problems" — shows up as the ordering of the three columns.
func Section6Study(p *runner.Pool, tr *trace.Trace, nodes int) ([]PolicyRow, string, error) {
	sys := []server.System{server.LARDServer, server.LARDDispatcher, server.L2SServer}
	jobs := make([]runner.Job, len(sys))
	for i, s := range sys {
		jobs[i] = runner.Job{
			Key:    fmt.Sprintf("section6/%s", s),
			Config: server.NewConfig(s, nodes),
			Trace:  tr,
		}
	}
	rows, err := runRows(p, jobs, func(_ int, r server.Result) string { return r.System })
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "section 6: front-end LARD vs dispatcher LARD vs L2S (%s, %d nodes)\n", tr.Name, nodes)
	fmt.Fprintf(&b, "  %-14s %10s %8s %8s %8s\n", "system", "req/s", "miss%", "fwd%", "idle%")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %10.0f %8.1f %8.1f %8.1f\n",
			r.Policy, r.Throughput, r.MissRate*100, r.Forwarded*100, r.CPUIdle*100)
	}
	return rows, b.String(), nil
}

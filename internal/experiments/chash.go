package experiments

import (
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/trace"
)

// ChashScaleRow is one line of the web-scale dispatch study: a policy at a
// cluster size, with the control-traffic columns that separate the
// zero-coordination consistent-hashing family from the directory policies.
type ChashScaleRow struct {
	Nodes    int
	Row      PolicyRow
	Messages uint64
	Gossip   uint64
}

// chashScalePolicies are the contenders of the scaling study: the three
// consistent-hashing variants against the two locality-conscious directory
// policies of the paper's evaluation.
var chashScalePolicies = []string{"chash", "chash-bounded", "chash-d", "lard", "l2s"}

// ChashScaleStudy sweeps the consistent-hashing family against LARD and L2S
// on one Zipf workload across cluster sizes — the Figure-7-style scaling
// question asked at web scale (catalogs far beyond any node's cache, node
// counts beyond any broadcast budget). The gossip column is the study's
// point: chash makes every decision from local hashes and true local loads,
// so its policy control traffic is exactly zero at every N, while the
// directory policies pay coordination traffic that grows with the cluster.
func ChashScaleStudy(p *runner.Pool, nodesList []int, files, requests int) (Figure, []ChashScaleRow, string, error) {
	tr, err := trace.Generate(trace.GenSpec{
		Name:      fmt.Sprintf("chash-scale-F%d", files),
		Files:     files,
		AvgFileKB: 6,
		Requests:  requests,
		AvgReqKB:  5,
		Alpha:     0.8,
		LocalityP: 0.3,
		Seed:      11,
	})
	if err != nil {
		return Figure{}, nil, "", err
	}

	var jobs []runner.Job
	var meta []struct {
		nodes  int
		policy string
	}
	for _, n := range nodesList {
		for _, name := range chashScalePolicies {
			meta = append(meta, struct {
				nodes  int
				policy string
			}{n, name})
			jobs = append(jobs, runner.Job{
				Key: fmt.Sprintf("chash-scale/%s/n=%d", name, n),
				Config: server.NewConfig(server.CustomServer, n,
					server.WithPolicy(name), server.WithSeed(5)),
				Trace: tr,
			})
		}
	}

	var rows []ChashScaleRow
	for i, jr := range p.Run(jobs) {
		if jr.Err != nil {
			return Figure{}, nil, "", fmt.Errorf("experiments: %s: %w", jr.Key, jr.Err)
		}
		rows = append(rows, ChashScaleRow{
			Nodes:    meta[i].nodes,
			Row:      policyRow(meta[i].policy, jr.Result),
			Messages: jr.Result.ControlMessages,
			Gossip:   jr.Result.GossipMessages,
		})
	}

	fig := Figure{
		ID:     "chash-scale",
		Title:  fmt.Sprintf("throughput vs cluster size, %d-file Zipf catalog, %d requests", files, requests),
		XLabel: "nodes",
		YLabel: "req/s",
	}
	for _, n := range nodesList {
		fig.X = append(fig.X, float64(n))
	}
	for _, name := range chashScalePolicies {
		s := Series{Label: name}
		for _, r := range rows {
			if r.Row.Policy == name {
				s.Values = append(s.Values, r.Row.Throughput)
			}
		}
		fig.Series = append(fig.Series, s)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "web-scale dispatch on %s: consistent hashing vs directory policies\n", tr.Name)
	fmt.Fprintf(&b, "  %5s %-14s %10s %8s %8s %10s %12s %10s\n",
		"nodes", "policy", "req/s", "miss%", "fwd%", "imbalance", "ctrl msgs", "gossip")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %5d %-14s %10.0f %8.1f %8.1f %10.2f %12d %10d\n",
			r.Nodes, r.Row.Policy, r.Row.Throughput, r.Row.MissRate*100,
			r.Row.Forwarded*100, r.Row.Imbalance, r.Messages, r.Gossip)
	}
	return fig, rows, b.String(), nil
}

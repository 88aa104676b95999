package experiments

import (
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/trace"
)

// SensitivityResult is one row of an ablation sweep.
type SensitivityResult struct {
	Variant    string
	Throughput float64
	MissRate   float64
	Forwarded  float64
	Messages   uint64
}

func renderSensitivity(title string, rows []SensitivityResult) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "  %-24s %12s %8s %8s %10s\n", "variant", "req/s", "miss%", "fwd%", "messages")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %12.0f %8.1f %8.1f %10d\n",
			r.Variant, r.Throughput, r.MissRate*100, r.Forwarded*100, r.Messages)
	}
	return b.String()
}

// sensitivityVariant is one grid point of the ablation: a group, a label,
// and the configuration delta it applies on top of the paper's L2S setup.
type sensitivityVariant struct {
	group, name string
	opt         server.Option
}

// noop leaves the paper's configuration untouched.
func noop(*server.Config) {}

// L2SSensitivity reproduces the Section 5.2 summary — "the performance of
// L2S is only slightly affected by reasonable parameters of frequency of
// broadcasts, messaging overhead, and network latency and bandwidth" — and
// the design-choice ablations called out in DESIGN.md (gossip staleness,
// thresholds, saturation window). All variants across all groups form one
// flat grid executed by the pool.
func L2SSensitivity(p *runner.Pool, tr *trace.Trace, nodes int) (map[string][]SensitivityResult, string, error) {
	groups := []string{"broadcast-delta", "messaging-overhead", "network",
		"staleness", "thresholds", "window"}
	variants := []sensitivityVariant{
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

	jobs := make([]runner.Job, len(variants))
	for i, v := range variants {
		jobs[i] = runner.Job{
			Key:    "sensitivity/" + v.group + "/" + v.name,
			Config: server.NewConfig(server.L2SServer, nodes, v.opt),
			Trace:  tr,
		}
	}

	out := make(map[string][]SensitivityResult)
	for i, jr := range p.Run(jobs) {
		if jr.Err != nil {
			return nil, "", fmt.Errorf("experiments: %s: %w", jr.Key, jr.Err)
		}
		v := variants[i]
		out[v.group] = append(out[v.group], SensitivityResult{
			Variant:    v.name,
			Throughput: jr.Result.Throughput,
			MissRate:   jr.Result.MissRate,
			Forwarded:  jr.Result.ForwardedFrac,
			Messages:   jr.Result.ControlMessages,
		})
	}

	var b strings.Builder
	for _, g := range groups {
		b.WriteString(renderSensitivity("sensitivity/"+g, out[g]))
	}
	return out, b.String(), nil
}

// MemoryScaling reproduces the Section 5.2 memory observation: larger
// memories help the traditional server enormously (its miss rate falls),
// barely move L2S, and can never lift LARD past its front-end ceiling —
// "for some of our traces, the throughput of the traditional server becomes
// higher than that of the LARD server for larger memories (128 MB) and
// numbers of nodes (8 or more)".
func MemoryScaling(p *runner.Pool, tr *trace.Trace, nodes []int) ([]Figure, string, error) {
	mems := []int64{32 << 20, 128 << 20}
	var jobs []runner.Job
	for _, mem := range mems {
		for _, sys := range systems {
			for _, n := range nodes {
				jobs = append(jobs, runner.Job{
					Key:    fmt.Sprintf("memory/%dmb/%s/n=%d", mem>>20, sys, n),
					Config: server.NewConfig(sys, n, server.WithCacheBytes(mem)),
					Trace:  tr,
				})
			}
		}
	}
	results := p.Run(jobs)

	var figs []Figure
	var b strings.Builder
	idx := 0
	for _, mem := range mems {
		fig := Figure{
			ID:     fmt.Sprintf("memory-%dmb-%s", mem>>20, tr.Name),
			Title:  fmt.Sprintf("throughputs for %s with %d MB caches", tr.Name, mem>>20),
			XLabel: "nodes",
			YLabel: "requests/sec",
			X:      nodesAsFloats(nodes),
		}
		for _, sys := range systems {
			var vals []float64
			for range nodes {
				jr := results[idx]
				idx++
				if jr.Err != nil {
					return nil, "", fmt.Errorf("experiments: %s: %w", jr.Key, jr.Err)
				}
				vals = append(vals, jr.Result.Throughput)
			}
			fig.Series = append(fig.Series, Series{Label: sys.String(), Values: vals})
		}
		figs = append(figs, fig)
		b.WriteString(fig.Render())
	}
	return figs, b.String(), nil
}

// FailoverStudy quantifies the availability claim of Section 4: crash one
// node mid-run and compare how much service survives under L2S (any node)
// versus LARD (the front-end).
func FailoverStudy(p *runner.Pool, tr *trace.Trace, nodes int) (string, error) {
	cases := []struct {
		name string
		sys  server.System
		fail int
	}{
		{"l2s, node 3 fails", server.L2SServer, 3},
		{"lard, back-end 3 fails", server.LARDServer, 3},
		{"lard, front-end fails", server.LARDServer, 0},
	}
	jobs := make([]runner.Job, len(cases))
	for i, c := range cases {
		jobs[i] = runner.Job{
			Key:    "failover/" + c.name,
			Config: server.NewConfig(c.sys, nodes, server.WithFailure(c.fail, 0.5)),
			Trace:  tr,
		}
	}
	var b strings.Builder
	b.WriteString("failover: one node crashes halfway through the run\n")
	for i, jr := range p.Run(jobs) {
		if jr.Err != nil {
			return "", fmt.Errorf("experiments: %s: %w", jr.Key, jr.Err)
		}
		r := jr.Result
		served := float64(r.Completed) / float64(r.Completed+r.Aborted) * 100
		fmt.Fprintf(&b, "  %-26s served=%5.1f%%  aborted=%d  throughput=%.0f\n",
			cases[i].name, served, r.Aborted, r.Throughput)
	}
	return b.String(), nil
}

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/trace"
)

// TraceRun holds everything measured for one trace across cluster sizes —
// the raw material of Figures 7-10 and the Section 5.2 metrics.
type TraceRun struct {
	Trace      string
	CacheBytes int64   // per-node cache of every run
	SeqMiss    float64 // sequential-server miss rate at CacheBytes
	Nodes      []int

	Model   []float64                  // model bound per cluster size
	Results map[string][]server.Result // system name -> per-cluster-size results
}

// systems are the three simulated servers, in the paper's plotting order.
var systems = []server.System{server.L2SServer, server.LARDServer, server.Traditional}

// RunWorkload simulates all three systems over one workload for every
// cluster size in opts and computes the per-size model bound.
func RunWorkload(tr *trace.Trace, opts Options) (*TraceRun, error) {
	curve := ReuseCurve(tr)
	ch := trace.Characterize(tr)
	run := &TraceRun{
		Trace:      tr.Name,
		CacheBytes: opts.CacheBytes,
		SeqMiss:    curve.MissRate(opts.CacheBytes),
		Nodes:      opts.Nodes,
		Results:    make(map[string][]server.Result),
	}
	s := &study{trace: tr}
	for _, n := range opts.Nodes {
		p, hlc, q := modelAt(ch, n, opts, curve.HitRate)
		run.Model = append(run.Model, p.Bound(hlc, q).RequestsPerSec)
		for _, sys := range systems {
			s.add(tr.Name+"/"+sys.String(), fmt.Sprintf("n=%d", n),
				server.NewConfig(sys, n, server.WithCacheBytes(opts.CacheBytes)))
		}
	}
	res, err := runStudies(opts.Pool(), s)
	if err != nil {
		return nil, err
	}
	// Rows are (node, system)-major, so reassembling in that order
	// rebuilds each per-system slice aligned with opts.Nodes.
	for _, r := range res[0] {
		run.Results[r.System] = append(run.Results[r.System], r)
	}
	return run, nil
}

func nodesAsFloats(nodes []int) []float64 {
	out := make([]float64, len(nodes))
	for i, n := range nodes {
		out[i] = float64(n)
	}
	return out
}

// overNodes is the figure of one metric over the run's cluster sizes: get
// read off each system's results, one series per label; labels name the
// first len(labels) of systems, in order. title is a format taking the
// trace name.
func (tr *TraceRun) overNodes(id, title string, get func(server.Result) float64, labels ...string) Figure {
	fig := Figure{ID: id, Title: fmt.Sprintf(title, tr.Trace), XLabel: "nodes", X: nodesAsFloats(tr.Nodes)}
	for i, l := range labels {
		s := Series{Label: l}
		for _, r := range tr.Results[systems[i].String()] {
			s.Values = append(s.Values, get(r))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

func throughput(r server.Result) float64 { return r.Throughput }

// ThroughputFigure renders the trace's Figure 7-10 curve set: model, L2S,
// LARD, and traditional throughput versus cluster size.
func (tr *TraceRun) ThroughputFigure(id string) Figure {
	fig := tr.overNodes(id, "throughputs for the %s trace", throughput, "l2s", "lard", "trad")
	fig.Series = append([]Series{{Label: "model", Values: tr.Model}}, fig.Series...)
	return fig
}

// MissRateFigure renders the Section 5.2 cache miss rate comparison.
func (tr *TraceRun) MissRateFigure() Figure {
	return tr.overNodes("missrates-"+tr.Trace, "cache miss rates for the %s trace (%%)",
		func(r server.Result) float64 { return r.MissRate * 100 }, "l2s", "lard", "trad")
}

// IdleTimeFigure renders the Section 5.2 CPU idle time comparison.
func (tr *TraceRun) IdleTimeFigure() Figure {
	return tr.overNodes("idletimes-"+tr.Trace, "CPU idle times for the %s trace (%%)",
		func(r server.Result) float64 { return r.CPUIdle * 100 }, "l2s", "lard", "trad")
}

// ForwardingFigure renders the Section 5.2 forwarded-request comparison.
func (tr *TraceRun) ForwardingFigure() Figure {
	return tr.overNodes("forwarding-"+tr.Trace, "forwarded requests for the %s trace (%%)",
		func(r server.Result) float64 { return r.ForwardedFrac * 100 }, "l2s", "lard")
}

// MemoryScaling reproduces the Section 5.2 memory observation: larger
// memories help the traditional server enormously (its miss rate falls),
// barely move L2S, and can never lift LARD past its front-end ceiling —
// "for some of our traces, the throughput of the traditional server becomes
// higher than that of the LARD server for larger memories (128 MB) and
// numbers of nodes (8 or more)". It compares run, RunWorkload's sweep of tr
// at 32 MB (in a full pass, the Figure 7 or 9 sweep, reused rather than
// simulated twice), with the same sweep of opts.Nodes at 128 MB.
func MemoryScaling(tr *trace.Trace, run *TraceRun, opts Options) ([]Figure, string, error) {
	opts.CacheBytes = 128 << 20
	large, err := RunWorkload(tr, opts)
	if err != nil {
		return nil, "", err
	}
	var figs []Figure
	var b strings.Builder
	for _, r := range []*TraceRun{run, large} {
		mb := r.CacheBytes >> 20
		fig := r.overNodes(fmt.Sprintf("memory-%dmb-%s", mb, tr.Name),
			"throughputs for %s with "+fmt.Sprint(mb)+" MB caches", throughput, "l2s", "lard", "traditional")
		figs = append(figs, fig)
		b.WriteString(fig.Render())
	}
	return figs, b.String(), nil
}

// Summary condenses a run into the headline comparisons the paper quotes
// at the largest cluster size.
func (tr *TraceRun) Summary() string {
	last := len(tr.Nodes) - 1
	l2s := tr.Results["l2s"][last].Throughput
	lard := tr.Results["lard"][last].Throughput
	trad := tr.Results["traditional"][last].Throughput
	model := tr.Model[last]
	var b strings.Builder
	fmt.Fprintf(&b, "%s at %d nodes: model=%.0f l2s=%.0f lard=%.0f trad=%.0f\n",
		tr.Trace, tr.Nodes[last], model, l2s, lard, trad)
	fmt.Fprintf(&b, "  l2s vs model: %.0f%% below bound\n", (1-l2s/model)*100)
	fmt.Fprintf(&b, "  l2s vs lard: %+.0f%%   l2s vs trad: %+.0f%%\n",
		(l2s/lard-1)*100, (l2s/trad-1)*100)
	fmt.Fprintf(&b, "  sequential 32MB miss rate: %.1f%%\n", tr.SeqMiss*100)
	return b.String()
}

// scaleTrace is one trace of a scale sweep with the titles of its table
// and its figure.
type scaleTrace struct {
	tr                     *trace.Trace
	table, figID, figTitle string
}

// scaleSweep asks the paper's Figure 7-10 question — throughput versus
// cluster size — at sizes its hardware never reached: every policy at
// every size in nodesList on each trace, as one deterministic pool sweep.
// Each trace gets one table, whose control-message and gossip columns
// separate the zero-coordination consistent-hashing family (no gossip at
// any N) from the directory policies (coordination traffic that grows with
// the cluster), and one figure of throughput over nodes, printed after
// every table.
func scaleSweep(p *runner.Pool, key string, traces []scaleTrace, nodesList []int, policies []string,
	gossipVerb string) (string, error) {
	studies := make([]*study, len(traces))
	for i, st := range traces {
		studies[i] = &study{
			title: st.table,
			trace: st.tr,
			cols: []column{
				{"nodes", "%5d", func(r server.Result) any { return r.Nodes }},
				label("policy", 14), reqPerSec, missPct, fwdPct, imbalance,
				{"ctrl msgs", "%12d", func(r server.Result) any { return r.ControlMessages }},
				{"gossip", gossipVerb, func(r server.Result) any { return r.GossipMessages }},
			},
		}
		for _, n := range nodesList {
			for _, name := range policies {
				studies[i].rows = append(studies[i].rows, row{fmt.Sprintf("%s/%s/n=%d", key, name, n), name,
					server.NewConfig(server.CustomServer, n, server.WithPolicy(name), server.WithSeed(5))})
			}
		}
	}
	results, err := runStudies(p, studies...)
	if err != nil {
		return "", err
	}
	var text, figs string
	for i, st := range traces {
		fig := Figure{ID: st.figID, Title: st.figTitle, XLabel: "nodes", X: nodesAsFloats(nodesList)}
		for j, name := range policies {
			s := Series{Label: name}
			for k := j; k < len(results[i]); k += len(policies) {
				s.Values = append(s.Values, results[i][k].Throughput)
			}
			fig.Series = append(fig.Series, s)
		}
		text += studies[i].render(results[i])
		figs += "\n" + fig.Render()
	}
	return text + figs, nil
}

// ChashScaleStudy sweeps the consistent-hashing family against LARD and L2S
// on one Zipf workload across cluster sizes — the Figure-7-style scaling
// question asked at web scale (catalogs far beyond any node's cache, node
// counts beyond any broadcast budget).
func ChashScaleStudy(p *runner.Pool, nodesList []int, files, requests int) (string, error) {
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
		return "", err
	}
	return scaleSweep(p, "chash-scale", []scaleTrace{{tr,
		fmt.Sprintf("web-scale dispatch on %s: consistent hashing vs directory policies", tr.Name),
		"chash-scale", fmt.Sprintf("throughput vs cluster size, %d-file Zipf catalog, %d requests", files, requests)}},
		nodesList, []string{"chash", "chash-bounded", "chash-d", "lard", "l2s"}, "%10d")
}

// ScaleFiguresStudy re-asks Figures 7-10 on each of the four paper traces
// against the paper's two directory policies and the bounded-load
// consistent-hashing variant, the best zero-coordination alternative at
// these sizes. With the flattened gossip path a full sweep to N=1024 at
// -scale 1 is a routine run rather than an overnight one, which is the
// point of committing results/scale-figures.txt.
func ScaleFiguresStudy(p *runner.Pool, nodesList []int, scale float64) (string, error) {
	var traces []scaleTrace
	for _, spec := range trace.PaperTraces() {
		tr, err := trace.Generate(spec.Scaled(scale))
		if err != nil {
			return "", err
		}
		traces = append(traces, scaleTrace{tr, tr.Name + ":", "scalefigs-" + tr.Name,
			fmt.Sprintf("throughput vs cluster size, %s trace", tr.Name)})
	}
	text, err := scaleSweep(p, "scalefigs", traces, nodesList, []string{"l2s", "lard", "chash-bounded"}, "%12d")
	return fmt.Sprintf("Figure 7-10 families at large cluster sizes (scale %g)\n", scale) + text, err
}

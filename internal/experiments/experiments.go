// Package experiments regenerates every table and figure of the paper's
// evaluation: the Table 1 parameter set, the modeling surfaces of Figures
// 3-6 and the Section 3.2 memory/replication studies, the Table 2 trace
// characteristics, the throughput-versus-cluster-size curves of Figures
// 7-10 with their model bounds, and the Section 5.2 secondary metrics
// (miss rates, CPU idle times, forwarding fractions, memory scaling, and
// the L2S sensitivity study).
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/queuemodel"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Options size the experiment runs. Paper scale (Scale=1) replays every
// trace in full, which takes minutes per figure; smaller scales keep the
// curves' shape while running in seconds.
type Options struct {
	// Scale multiplies each trace's request count (1 = the paper's full
	// traces).
	Scale float64
	// Nodes are the cluster sizes of the Figures 7-10 sweeps.
	Nodes []int
	// CacheBytes is the per-node memory (Section 5.1: 32 MB).
	CacheBytes int64
	// Replication is the model curve's replication fraction (paper: 15%).
	Replication float64
	// Workers is how many simulations run concurrently: 0 uses every
	// core, 1 forces the sequential path. Results are identical either
	// way; only wall-clock time changes.
	Workers int
	// Progress, when non-nil, observes each completed simulation.
	Progress func(p runner.Progress)
}

// Pool returns the sweep executor the options describe.
func (o Options) Pool() *runner.Pool {
	p := runner.NewPool(o.Workers)
	p.OnProgress = o.Progress
	return p
}

// DefaultOptions returns a fast-but-faithful configuration: 15% of each
// trace's requests and the paper's cluster sizes.
func DefaultOptions() Options {
	return Options{
		Scale:       0.15,
		Nodes:       []int{1, 2, 4, 8, 12, 16},
		CacheBytes:  32 << 20,
		Replication: 0.15,
	}
}

// Series is one labeled curve of a figure.
type Series struct {
	Label  string
	Values []float64 // aligned with the figure's X axis
}

// Figure is a reproduced paper figure: an X axis and one or more series.
type Figure struct {
	ID     string // e.g. "figure7"
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Render draws the figure as an aligned text table.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%14s", s.Label)
	}
	b.WriteByte('\n')
	for i, x := range f.X {
		fmt.Fprintf(&b, "%-12g", x)
		for _, s := range f.Series {
			if i < len(s.Values) {
				fmt.Fprintf(&b, "%14.1f", s.Values[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString(f.XLabel)
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(s.Label)
	}
	b.WriteByte('\n')
	for i, x := range f.X {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			if i < len(s.Values) {
				fmt.Fprintf(&b, ",%.2f", s.Values[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table1 renders the model parameters and their default values, the
// content of the paper's Table 1.
func Table1() string {
	p := queuemodel.DefaultParams()
	rows := [][2]string{
		{"N (nodes)", fmt.Sprintf("%d", p.Nodes)},
		{"R (replication)", fmt.Sprintf("%.0f%%", p.Replication*100)},
		{"alpha (Zipf constant)", fmt.Sprintf("%g", p.Alpha)},
		{"mu_r (routing rate)", fmt.Sprintf("%.0f/size ops/s", p.RouterKBps)},
		{"mu_i (request service rate at NI)", fmt.Sprintf("%.0f ops/s", p.NIInRate)},
		{"mu_p (request read/parsing rate)", fmt.Sprintf("%.0f ops/s", p.ParseRate)},
		{"mu_f (request forwarding rate)", fmt.Sprintf("%.0f ops/s", p.ForwardRate)},
		{"mu_m (reply rate, cached)", fmt.Sprintf("1/(%g + S/%g) ops/s", p.ReplyFixed, p.ReplyKBps)},
		{"mu_d (disk access rate)", fmt.Sprintf("1/(%g + S/%g) ops/s", p.DiskFixed, p.DiskKBps)},
		{"mu_o (reply service rate at NI)", fmt.Sprintf("1/(%g + S/%g) ops/s", p.NIOutFixed, p.NIOutKBps)},
		{"C (cache per node)", fmt.Sprintf("%d MB", p.CacheBytes>>20)},
	}
	var b strings.Builder
	b.WriteString("table1: model parameters and default values\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-36s %s\n", r[0], r[1])
	}
	return b.String()
}

// Table2 generates the four paper traces at the given scale and reports
// their characteristics, the content of the paper's Table 2.
func Table2(opts Options) ([]trace.Characteristics, string) {
	var out []trace.Characteristics
	var b strings.Builder
	b.WriteString("table2: trace characteristics\n")
	fmt.Fprintf(&b, "  %-10s %9s %12s %12s %11s %8s %11s\n",
		"trace", "files", "avg file", "requests", "avg req", "alpha", "working set")
	for _, spec := range trace.PaperTraces() {
		tr := trace.MustGenerate(spec.Scaled(opts.Scale))
		ch := trace.Characterize(tr)
		out = append(out, ch)
		fmt.Fprintf(&b, "  %-10s %9d %9.1f KB %12d %8.1f KB %8.2f %8.0f MB\n",
			ch.Name, ch.CatalogFiles, ch.CatalogAvgKB, ch.NumRequests, ch.AvgReqKB,
			ch.Alpha, ch.CatalogMB)
	}
	return out, b.String()
}

// HitRateAtCapacity measures the warm LRU hit rate of the trace at a given
// cache capacity, after warming on the first third; at 32 MB its complement
// is the sequential miss rate Section 5.1 calibrates against (9-28%). The
// model curves of Figures 7-10 use it to instantiate the paper's hit-rate
// algebra with the workload's true behavior: Hlo at one node's memory, Hlc
// at the cluster-wide cache Clc = N(1-R)C + RC, and h at the replicated
// slice RC. (The paper's closed-form z(n, F) assumes independent Zipf
// references; real and realistic traces also carry temporal locality, which
// an LRU pass captures and a z-evaluation would miss, so anchoring on
// measured hit rates keeps the model an upper bound.)
func HitRateAtCapacity(tr *trace.Trace, cacheBytes int64) float64 {
	if cacheBytes <= 0 {
		return 0
	}
	c := cache.NewLRU(cacheBytes)
	warm := tr.NumRequests() / 3
	for i, id := range tr.Requests {
		if i < warm {
			c.Warm(id, tr.Size(id))
		} else {
			c.Access(id, tr.Size(id))
		}
	}
	return c.HitRate()
}

// ReuseCurve computes the trace's byte-granular LRU miss-ratio curve in a
// single pass (Mattson's stack algorithm), warmed on the first third:
// Curve.HitRate(C) then equals a direct LRU simulation at any capacity
// larger than the biggest file, so one pass anchors the model's hit rates
// for every cluster size at once.
func ReuseCurve(tr *trace.Trace) *cache.Curve {
	b := cache.NewCurveBuilder(tr.NumRequests())
	warm := tr.NumRequests() / 3
	for i, id := range tr.Requests {
		if i < warm {
			b.Warm(id, tr.Size(id))
		} else {
			b.Add(id, tr.Size(id))
		}
	}
	return b.Curve()
}

// modelBound computes the per-trace "model" curve of Figures 7-10: the
// locality-conscious throughput bound with 15% replication, with all three
// hit rates measured on the workload itself (via its reuse curve).
func modelBound(curve *cache.Curve, ch trace.Characteristics, nodes int, opts Options) float64 {
	p := queuemodel.DefaultParams()
	p.Nodes = nodes
	p.CacheBytes = opts.CacheBytes
	p.Replication = opts.Replication
	p.AvgFileKB = ch.AvgReqKB

	clc := p.TotalConsciousCache()
	hlc := curve.HitRate(int64(clc))
	h := curve.HitRate(int64(opts.Replication * float64(opts.CacheBytes)))
	return p.Bound(hlc, p.ForwardFraction(h)).RequestsPerSec
}

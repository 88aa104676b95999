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
	"math"
	"slices"
	"strconv"
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
	X      []float64
	Series []Series
}

// Render draws the figure as an aligned text table.
func (f Figure) Render() string {
	return fmt.Sprintf("%s: %s\n", f.ID, f.Title) + f.table("%-12s", "%14s", "%14.1f")
}

// CSV renders the figure as comma-separated values.
func (f Figure) CSV() string {
	return f.table("%s", ",%s", ",%.2f")
}

// table prints the X label and each series label on a header line, then
// one line per X value with each series' value at that point: x formats
// the X label and values, head the series labels, value their values.
func (f Figure) table(x, head, value string) string {
	var b strings.Builder
	fmt.Fprintf(&b, x, f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, head, s.Label)
	}
	b.WriteByte('\n')
	for i, xv := range f.X {
		fmt.Fprintf(&b, x, axisValue(xv))
		for _, s := range f.Series {
			if i < len(s.Values) {
				fmt.Fprintf(&b, value, s.Values[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// chartMarks give each series a distinct plotting glyph.
var chartMarks = []byte{'*', 'o', '+', 'x', '#', '@'}

// Chart renders the figure as an ASCII scatter/line chart of the given
// plot-area dimensions — enough to eyeball the curves of Figures 7-10 in a
// terminal without leaving the repository.
func (f Figure) Chart(width, height int) string {
	width = max(width, 8)
	height = max(height, 4)
	if len(f.X) == 0 || len(f.Series) == 0 {
		return f.ID + ": (no data)\n"
	}

	xmin, xmax := slices.Min(f.X), slices.Max(f.X)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		if len(s.Values) > 0 {
			ymin = min(ymin, slices.Min(s.Values))
			ymax = max(ymax, slices.Max(s.Values))
		}
	}
	ymin = min(ymin, 0) // anchor throughput-like charts at zero
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, mark byte) {
		col := int(math.Round((x - xmin) / (xmax - xmin) * float64(width-1)))
		row := int(math.Round((y - ymin) / (ymax - ymin) * float64(height-1)))
		row = height - 1 - row // origin at the bottom
		if col >= 0 && col < width && row >= 0 && row < height && grid[row][col] == ' ' {
			// First series wins coincident cells, so every curve stays
			// visible in legend order.
			grid[row][col] = mark
		}
	}
	for si, s := range f.Series {
		mark := chartMarks[si%len(chartMarks)]
		for i, v := range s.Values {
			if i < len(f.X) {
				plot(f.X[i], v, mark)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	for r, row := range grid {
		label := "          "
		switch r {
		case 0:
			label = fmt.Sprintf("%10.4g", ymax)
		case height - 1:
			label = fmt.Sprintf("%10.4g", ymin)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, row)
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 10), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-*g%*g\n", strings.Repeat(" ", 10), width/2, xmin, width-width/2, xmax)
	b.WriteString(strings.Repeat(" ", 12))
	for si, s := range f.Series {
		fmt.Fprintf(&b, "%c=%s  ", chartMarks[si%len(chartMarks)], s.Label)
	}
	b.WriteByte('\n')
	return b.String()
}

// axisValue prints an X value as %g does after rounding it to 12
// significant digits. An axis built by repeated addition carries rounding
// noise (Figure 6's hit rates step by 0.05 and reach 0.15000000000000002),
// which the rounding drops while any two grid points stay apart; a value
// without such noise prints exactly as %g prints it.
func axisValue(x float64) string {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 12, 64), 64)
	return strconv.FormatFloat(r, 'g', -1, 64)
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

// ReuseCurve computes the trace's byte-granular LRU miss-ratio curve in a
// single pass (Mattson's stack algorithm), warmed on the first third:
// Curve.HitRate(C) then equals a direct LRU simulation at any capacity
// larger than the biggest file of under 4 GiB, so one pass anchors the
// model's hit rates for every cluster size at once. At 32 MB its miss rate
// is the sequential miss rate Section 5.1 calibrates against (9-28%). The
// model curves use it to instantiate the paper's hit-rate algebra with the
// workload's true behavior: the paper's closed-form z(n, F) assumes
// independent Zipf references, while real and realistic traces also carry
// temporal locality, which an LRU pass captures and a z-evaluation would
// miss, so anchoring on measured hit rates keeps the model an upper bound.
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

// modelAt instantiates the locality-conscious model for a characterized
// workload on nodes nodes with the options' memory and replication, and
// anchors it on the workload: hitRate(c) is its warm LRU hit rate at
// capacity c, read at the cluster-wide cache (Hlc) and at the replicated
// slice (h, which sets the forward fraction q). The model curve of Figures
// 7-10 is p.Bound(hlc, q).
func modelAt(ch trace.Characteristics, nodes int, opts Options, hitRate func(int64) float64) (p queuemodel.Params, hlc, q float64) {
	p = queuemodel.DefaultParams()
	p.Nodes = nodes
	p.CacheBytes = opts.CacheBytes
	p.Replication = opts.Replication
	p.AvgFileKB = ch.AvgReqKB
	hlc = hitRate(int64(p.TotalConsciousCache()))
	q = p.ForwardFraction(hitRate(int64(opts.Replication * float64(opts.CacheBytes))))
	return p, hlc, q
}

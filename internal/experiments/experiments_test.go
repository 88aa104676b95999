package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/trace"
)

// testPool runs study sweeps on every core; results are identical to
// sequential execution, which TestParallelWorkloadMatchesSequential checks
// end to end.
func testPool() *runner.Pool { return runner.NewPool(0) }

// fastOptions keeps the experiment tests quick: a small slice of each
// trace and three cluster sizes.
func fastOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.08
	o.Nodes = []int{1, 8, 16}
	return o
}

func fastTrace(t *testing.T, name string, scale float64) *trace.Trace {
	t.Helper()
	spec, err := trace.PaperTrace(name)
	if err != nil {
		t.Fatal(err)
	}
	return trace.MustGenerate(spec.Scaled(scale))
}

// lruHitRate is the direct measurement ReuseCurve replaces: the warm LRU
// hit rate of the trace at one cache capacity, after warming on the first
// third.
func lruHitRate(tr *trace.Trace, cacheBytes int64) float64 {
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

func TestTable1Renders(t *testing.T) {
	s := Table1()
	for _, want := range []string{"mu_r", "mu_p", "6300", "128 MB", "10000 ops/s"} {
		if !strings.Contains(s, want) {
			t.Errorf("table1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	chs, text := Table2(Options{Scale: 0.05})
	if len(chs) != 4 {
		t.Fatalf("got %d traces", len(chs))
	}
	names := map[string]int{"calgary": 8397, "clarknet": 35885, "nasa": 5500, "rutgers": 24098}
	for _, ch := range chs {
		if want, ok := names[ch.Name]; !ok || ch.CatalogFiles != want {
			t.Errorf("%s: files=%d want %d", ch.Name, ch.CatalogFiles, want)
		}
	}
	if !strings.Contains(text, "calgary") {
		t.Error("rendered table missing trace names")
	}
}

func TestModelSurfacesShape(t *testing.T) {
	fig3, fig4, fig5 := ModelSurfaces()
	p3, _, _ := fig3.Max()
	p4, _, _ := fig4.Max()
	p5, _, _ := fig5.Max()
	if p3 < 20000 || p4 < 18000 {
		t.Errorf("surface peaks too low: fig3=%v fig4=%v", p3, p4)
	}
	if p5 < 5.5 || p5 > 8.5 {
		t.Errorf("figure 5 peak %v outside the paper's ~7x", p5)
	}
	fig6 := Figure6(fig5)
	if len(fig6.X) != len(fig5.HitRates) {
		t.Error("figure 6 axis mismatch")
	}
	if !strings.Contains(SurfaceSummary(fig5), "peak") {
		t.Error("summary missing peak")
	}
}

// Figure 6's hit-rate axis is built by adding 0.05 twenty times; its
// labels print rounded (0.15, not 0.15000000000000002), so every row keeps
// the table's 26-character width, and the CSV carries the same labels.
func TestFigure6AxisAligned(t *testing.T) {
	_, _, fig5 := ModelSurfaces()
	fig := Figure6(fig5)
	lines := strings.Split(strings.TrimSuffix(fig.Render(), "\n"), "\n")[2:]
	if len(lines) != len(fig.X) {
		t.Fatalf("%d rows for %d hit rates", len(lines), len(fig.X))
	}
	for i, line := range lines {
		if len(line) != 26 {
			t.Errorf("row %d is %d characters, want 26: %q", i, len(line), line)
		}
	}
	if !strings.HasPrefix(lines[3], "0.15 ") || !strings.Contains(fig.CSV(), "\n0.15,") {
		t.Errorf("hit rate 0.15 printed as %q", lines[3])
	}
}

func TestMemorySweepMonotone(t *testing.T) {
	fig := MemorySweep()
	means := fig.Series[1].Values
	for i := 1; i < len(means); i++ {
		if means[i] >= means[i-1] {
			t.Fatalf("mean gain must fall with memory: %v", means)
		}
	}
}

func TestReplicationSweepTradeoffs(t *testing.T) {
	fig := ReplicationSweep()
	hlc := fig.Series[1].Values
	fwd := fig.Series[2].Values
	last := len(fig.X) - 1
	if hlc[0] <= hlc[last] {
		t.Errorf("Hlc should fall as replication rises: %v", hlc)
	}
	if fwd[0] <= fwd[last] {
		t.Errorf("forwarding should fall as replication rises: %v", fwd)
	}
}

func TestSequentialMissRateBands(t *testing.T) {
	for _, name := range []string{"calgary", "nasa"} {
		tr := fastTrace(t, name, 0.1)
		m := 1 - lruHitRate(tr, 32<<20)
		if m < 0.03 || m > 0.35 {
			t.Errorf("%s: sequential miss %.1f%% far outside the paper band", name, m*100)
		}
	}
}

// Figures 7-10: every paper trace sweeps without error and yields the four
// curves over every cluster size, in the paper's shape.
func TestRunTraceProducesAllSeries(t *testing.T) {
	for i, name := range []string{"calgary", "clarknet", "nasa", "rutgers"} {
		run, err := RunWorkload(fastTrace(t, name, fastOptions().Scale), fastOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fig := run.ThroughputFigure(fmt.Sprintf("figure%d", 7+i))
		if len(fig.Series) != 4 {
			t.Fatalf("%s: want 4 series (model/l2s/lard/trad), got %d", name, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Values) != len(fig.X) {
				t.Fatalf("%s: series %s has %d values for %d sizes", name, s.Label, len(s.Values), len(fig.X))
			}
			for _, v := range s.Values {
				if v <= 0 {
					t.Fatalf("%s: series %s has non-positive throughput", name, s.Label)
				}
			}
		}
		// Paper shape: at 16 nodes, L2S leads both servers and sits below
		// the model bound.
		last := len(fig.X) - 1
		model, l2s, lard, trad := fig.Series[0].Values[last], fig.Series[1].Values[last],
			fig.Series[2].Values[last], fig.Series[3].Values[last]
		if !(l2s > lard && l2s > trad) {
			t.Errorf("%s: ordering broken at 16 nodes: l2s=%v lard=%v trad=%v", name, l2s, lard, trad)
		}
		if l2s > model*1.05 {
			t.Errorf("%s: l2s %v exceeds the model bound %v", name, l2s, model)
		}

		// Secondary figures render with consistent axes.
		for _, f := range []Figure{run.MissRateFigure(), run.IdleTimeFigure(), run.ForwardingFigure()} {
			if len(f.X) != len(fig.X) {
				t.Errorf("%s: %s axis mismatch", name, f.ID)
			}
			if !strings.Contains(f.Render(), "nodes") {
				t.Errorf("%s: %s render missing axis label", name, f.ID)
			}
		}
		if !strings.Contains(run.Summary(), "l2s vs lard") {
			t.Errorf("%s: summary missing comparisons", name)
		}
	}
}

func TestFigureRenderAndCSV(t *testing.T) {
	fig := Figure{
		ID: "x", Title: "t", XLabel: "n",
		X:      []float64{1, 2},
		Series: []Series{{Label: "a", Values: []float64{3, 4}}},
	}
	if r := fig.Render(); !strings.Contains(r, "x: t") || !strings.Contains(r, "3.0") {
		t.Errorf("render wrong:\n%s", r)
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "n,a\n1,3.00\n") {
		t.Errorf("csv wrong:\n%s", csv)
	}
}

func TestL2SSensitivityRobust(t *testing.T) {
	tr := fastTrace(t, "calgary", 0.05)
	results, text, err := L2SSensitivity(testPool(), tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's robustness claim covers broadcast frequency, messaging
	// overhead, and network latency/bandwidth: "only slightly affected".
	for _, group := range []string{"broadcast-delta", "messaging-overhead", "network", "staleness"} {
		rows := results[group]
		if len(rows) < 2 {
			t.Fatalf("group %s missing rows", group)
		}
		lo, hi := rows[0].Throughput, rows[0].Throughput
		for _, r := range rows {
			if r.Throughput < lo {
				lo = r.Throughput
			}
			if r.Throughput > hi {
				hi = r.Throughput
			}
		}
		if (hi-lo)/hi > 0.35 {
			t.Errorf("group %s swings %.0f%%: %v", group, (hi-lo)/hi*100, rows)
		}
	}
	// The threshold and window ablations are expected to matter — the
	// paper's values should be at (or near) the best of each sweep.
	for _, group := range []string{"thresholds", "window"} {
		var names []string
		for _, v := range sensitivityVariants {
			if v.group == group {
				names = append(names, v.name)
			}
		}
		rows := results[group]
		if len(rows) != len(names) {
			t.Fatalf("group %s: %d rows for %d variants", group, len(rows), len(names))
		}
		var paper, best float64
		for i, r := range rows {
			if strings.Contains(names[i], "paper") || strings.Contains(names[i], "default") {
				paper = r.Throughput
			}
			if r.Throughput > best {
				best = r.Throughput
			}
		}
		if paper < best*0.90 {
			t.Errorf("group %s: paper setting %.0f well below best %.0f", group, paper, best)
		}
	}
	if !strings.Contains(text, "sensitivity/broadcast-delta") {
		t.Error("rendered sensitivity output incomplete")
	}
}

func TestMemoryScalingHelpsTraditionalMost(t *testing.T) {
	tr := fastTrace(t, "calgary", 0.2)
	opts := fastOptions()
	opts.Nodes = []int{4, 8}
	run, err := RunWorkload(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	figs, text, err := MemoryScaling(tr, run, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("want 2 memory figures, got %d", len(figs))
	}
	series := func(f Figure, label string) []float64 {
		for _, s := range f.Series {
			if s.Label == label {
				return s.Values
			}
		}
		t.Fatalf("series %s missing", label)
		return nil
	}
	trad32 := series(figs[0], "traditional")
	trad128 := series(figs[1], "traditional")
	l2s32 := series(figs[0], "l2s")
	l2s128 := series(figs[1], "l2s")
	// Traditional gains far more, relatively, than L2S.
	tradGain := trad128[len(trad128)-1] / trad32[len(trad32)-1]
	l2sGain := l2s128[len(l2s128)-1] / l2s32[len(l2s32)-1]
	if tradGain <= l2sGain {
		t.Errorf("traditional gain %.2fx not above l2s gain %.2fx", tradGain, l2sGain)
	}
	if !strings.Contains(text, "128 MB caches") {
		t.Error("render missing titles")
	}
}

func TestFailoverStudy(t *testing.T) {
	tr := fastTrace(t, "calgary", 0.05)
	_, text, err := FailoverStudy(testPool(), tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"l2s, node 3 fails", "lard, front-end fails"} {
		if !strings.Contains(text, want) {
			t.Errorf("failover output missing %q:\n%s", want, text)
		}
	}
}

func TestPolicyComparisonOrdering(t *testing.T) {
	tr := fastTrace(t, "clarknet", 0.05)
	rows, text, err := PolicyComparison(testPool(), tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]server.Result{}
	for _, r := range rows {
		byName[r.System] = r
	}
	if byName["l2s"].Throughput <= byName["random"].Throughput {
		t.Error("L2S must beat random arrival")
	}
	if byName["hashing"].LoadImbalance <= byName["l2s"].LoadImbalance {
		t.Errorf("strict hashing (%.2f) should balance worse than L2S (%.2f)",
			byName["hashing"].LoadImbalance, byName["l2s"].LoadImbalance)
	}
	if byName["cached-dns"].Throughput > byName["traditional"].Throughput*1.1 {
		t.Error("cached DNS should not beat an ideal least-connections switch")
	}
	if !strings.Contains(text, "policy comparison") {
		t.Error("render missing header")
	}
}

func TestPersistentStudyEffects(t *testing.T) {
	spec, err := trace.PaperTrace("clarknet")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(0.08)
	tr := trace.MustGenerate(spec)
	rows, text, err := PersistentStudy(testPool(), tr, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Rows alternate http/1.0 and http/1.1 per system.
	get := func(system, mode string) server.Result {
		for i, r := range rows {
			if r.System == system && (i%2 == 1) == (mode == "http/1.1") {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", system, mode)
		return server.Result{}
	}
	if get("lard", "http/1.1").Throughput <= get("lard", "http/1.0").Throughput {
		t.Error("persistence should lift LARD's front-end ceiling")
	}
	if get("l2s", "http/1.1").Throughput < get("l2s", "http/1.0").Throughput*0.7 {
		t.Error("persistence should not collapse L2S")
	}
	if !strings.Contains(text, "http/1.1") {
		t.Error("render incomplete")
	}
}

func TestLatencyStudyShape(t *testing.T) {
	tr := fastTrace(t, "calgary", 0.08)
	fig, text, err := LatencyStudy(testPool(), tr, 16, []float64{500, 2000, 4000})
	if err != nil {
		t.Fatal(err)
	}
	sim := fig.Series[0].Values
	model := fig.Series[1].Values
	for i := 1; i < len(sim); i++ {
		if sim[i] <= sim[i-1] {
			t.Errorf("simulated latency not increasing with load: %v", sim)
		}
		if model[i] <= model[i-1] {
			t.Errorf("model latency not increasing with load: %v", model)
		}
	}
	// Both must be in the same ballpark at light load (within 3x: the
	// model ignores contention the simulator has, and vice versa for
	// chunked transmission).
	if sim[0] > model[0]*3 || model[0] > sim[0]*3 {
		t.Errorf("light-load latencies diverge: sim %v vs model %v", sim[0], model[0])
	}
	if !strings.Contains(text, "response time") {
		t.Error("render incomplete")
	}
}

func TestChartRendering(t *testing.T) {
	fig := Figure{
		ID: "c", Title: "chart", XLabel: "x",
		X: []float64{1, 2, 3, 4},
		Series: []Series{
			{Label: "up", Values: []float64{10, 20, 30, 40}},
			{Label: "flat", Values: []float64{25, 25, 25, 25}},
		},
	}
	s := fig.Chart(40, 10)
	if !strings.Contains(s, "*=up") || !strings.Contains(s, "o=flat") {
		t.Fatalf("legend missing:\n%s", s)
	}
	if !strings.Contains(s, "*") || !strings.Contains(s, "o") {
		t.Fatalf("marks missing:\n%s", s)
	}
	lines := strings.Split(s, "\n")
	if len(lines) < 12 {
		t.Fatalf("chart too short: %d lines", len(lines))
	}
	// The rising series' mark must appear on the top row of the plot and
	// the bottom-most data row.
	if !strings.Contains(lines[1], "*") {
		t.Errorf("top row missing the maximum point:\n%s", s)
	}
}

func TestChartDegenerate(t *testing.T) {
	if s := (Figure{ID: "e"}).Chart(20, 5); !strings.Contains(s, "no data") {
		t.Fatalf("empty chart: %q", s)
	}
	one := Figure{ID: "one", X: []float64{5}, Series: []Series{{Label: "a", Values: []float64{5}}}}
	if s := one.Chart(2, 2); s == "" {
		t.Fatal("degenerate chart should still render")
	}
}

func TestHeterogeneousStudy(t *testing.T) {
	tr := fastTrace(t, "calgary", 0.05)
	rows, text, err := HeterogeneousStudy(testPool(), tr, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	// Within each system, heterogeneous must not beat homogeneous.
	for i := 0; i < len(rows); i += 2 {
		homog, het := rows[i], rows[i+1]
		if het.Throughput > homog.Throughput*1.02 {
			t.Errorf("%s: heterogeneous %v beats homogeneous %v",
				het.System, het.Throughput, homog.Throughput)
		}
	}
	if !strings.Contains(text, "heterogeneous cluster") {
		t.Error("render incomplete")
	}
}

// The L2S failover run charts its throughput over time under the table.
func TestFailoverTimeline(t *testing.T) {
	tr := fastTrace(t, "calgary", 0.05)
	results, text, err := FailoverStudy(testPool(), tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(results[0].Timeline); n < 4 {
		t.Fatalf("timeline shape wrong: %d points", n)
	}
	if !strings.Contains(text, "failover-timeline") || !strings.Contains(text, "*=l2s") {
		t.Errorf("chart missing:\n%s", text)
	}
}

func TestSection6Ordering(t *testing.T) {
	// Small files so the front-end ceiling binds and the Section 6
	// comparison is visible.
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "s6", Files: 1000, AvgFileKB: 5, Requests: 60000,
		AvgReqKB: 4, Alpha: 0.9, LocalityP: 0.3, Seed: 8,
	})
	rows, text, err := Section6Study(testPool(), tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	lard, disp, l2s := rows[0].Throughput, rows[1].Throughput, rows[2].Throughput
	if !(l2s > disp && disp > lard) {
		t.Errorf("section 6 ordering broken: lard=%v dispatch=%v l2s=%v", lard, disp, l2s)
	}
	if !strings.Contains(text, "section 6") {
		t.Error("render incomplete")
	}
}

// The one-pass reuse curve must agree exactly with direct LRU passes at
// the capacities the model anchors use.
func TestReuseCurveMatchesLRUPasses(t *testing.T) {
	tr := fastTrace(t, "calgary", 0.05)
	curve := ReuseCurve(tr)
	for _, capMB := range []int64{5, 32, 128, 440} {
		c := capMB << 20
		direct := lruHitRate(tr, c)
		fast := curve.HitRate(c)
		if direct != fast {
			t.Errorf("capacity %dMB: curve %v != LRU %v", capMB, fast, direct)
		}
	}
}

// TestParallelWorkloadMatchesSequential is the acceptance check for the
// sweep runner: a figure regenerated on eight workers must be byte-for-byte
// the CSV a sequential run produces.
func TestParallelWorkloadMatchesSequential(t *testing.T) {
	tr := fastTrace(t, "calgary", 0.05)
	runFig := func(workers int) string {
		opts := fastOptions()
		opts.Workers = workers
		run, err := RunWorkload(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		return run.ThroughputFigure("figure7").CSV() +
			run.MissRateFigure().CSV() +
			run.IdleTimeFigure().CSV() +
			run.ForwardingFigure().CSV()
	}
	seq := runFig(1)
	par := runFig(8)
	if seq != par {
		t.Fatalf("parallel CSVs differ from sequential:\n--- sequential\n%s\n--- parallel\n%s", seq, par)
	}
}

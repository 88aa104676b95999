package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// readDocument decodes the first JSON value of a file written by this
// program; a -workload run's trailing summary line is ignored.
func readDocument(path string) (*document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var doc document
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// readBounds returns each end-to-end metric's bound and direction from
// BENCHMARK.json in the working directory, the repository root.
func readBounds() (map[string]decl, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []decl `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]decl)
	for _, d := range b.EndToEnd {
		bounds[d.Name] = d
	}
	return bounds, nil
}

// verdict judges b against a for one metric: worse when b is worse than a
// by more than the bound, the metric's floor and either run's own spread;
// unresolved when that spread is wider than the bound, so that "no change"
// cannot be told; within otherwise. An exact metric is deterministic for a
// seed: any difference is worse.
func verdict(d decl, a, b float64, spread float64) (delta float64, v string) {
	delta = (b - a) / a
	if d.Exact {
		if a != b {
			return delta, "worse"
		}
		return delta, "within"
	}
	worsening := delta
	if d.Better == "higher" {
		worsening = -delta
	}
	switch {
	case worsening > d.Bound && worsening > spread && worsening*a > d.Floor:
		return delta, "worse"
	case spread > d.Bound:
		return delta, "unresolved"
	}
	return delta, "within"
}

// spreadOf returns the wider of the two runs' own spreads of a metric. A
// measured metric with a single sample has no spread to show, so nothing
// about it can be resolved: its spread is infinite.
func spreadOf(d decl, a, b sampleStat) float64 {
	if !d.Exact && (len(a.Samples) < 2 || len(b.Samples) < 2) {
		return math.Inf(1)
	}
	return math.Max(a.Spread, b.Spread)
}

// statsDiffs compares the simulated statistics of every system of a
// workload and returns one line per difference.
func statsDiffs(a, b map[string]simStats) []string {
	var diffs []string
	if len(a) != len(b) {
		diffs = append(diffs, fmt.Sprintf("%d systems against %d", len(a), len(b)))
	}
	for sys, sa := range a {
		if sb, ok := b[sys]; !ok {
			diffs = append(diffs, sys+" is missing from the second document")
		} else if d := sa.diff(sb); d != "" {
			diffs = append(diffs, sys+": "+d)
		}
	}
	sort.Strings(diffs)
	return diffs
}

// compareDocs prints one row per end-to-end metric and workload, and one for
// the workload's simulated statistics and failed operations. It returns 1 if
// any row is worse, 2 if the documents cannot be compared: only two
// end-to-end passes at one seed and scale simulate the same thing.
func compareDocs(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readDocument(pathA)
	var b *document
	if err == nil {
		b, err = readDocument(pathB)
	}
	if err == nil {
		switch {
		case a.Env.Traced || b.Env.Traced:
			err = fmt.Errorf("a traced pass cannot be compared: end-to-end metrics are measured with tracing off")
		case a.Env.Seed != b.Env.Seed || a.Env.Scale != b.Env.Scale:
			err = fmt.Errorf("the documents differ in seed (%d, %d) or scale (%v, %v)", a.Env.Seed, b.Env.Seed, a.Env.Scale, b.Env.Scale)
		}
	}
	var bounds map[string]decl
	if err == nil {
		bounds, err = readBounds()
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	worse := func() {
		if code == 0 {
			code = 1
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tdelta\tbound\tspread\tverdict")
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			declared, ok := bounds[d.Name]
			ma, okA := ra.Metrics[d.Name]
			mb, okB := rb.Metrics[d.Name]
			if !ok || !okA || !okB {
				fmt.Fprintf(stderr, "bench: %s/%s missing from a document or from BENCHMARK.json\n", w.name, d.Name)
				code = 2
				continue
			}
			if d.Bound = declared.Bound; d.Exact {
				d.Bound = 0
			}
			spread := spreadOf(d, ra.Detail.EndToEnd[d.Name], rb.Detail.EndToEnd[d.Name])
			delta, v := verdict(d, ma.Value, mb.Value, spread)
			if v == "worse" {
				worse()
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.1f%%\t%s\n",
				w.name, d.Name, ma.Unit, ma.Value, mb.Value, 100*delta, 100*d.Bound, 100*spread, v)
		}
		// Exact rows: no operation may fail, and two passes at one seed
		// simulate the same thing to the bit.
		row := func(metric, unit string, a, b any, bad bool) {
			v := "within"
			if bad {
				v = "worse"
				worse()
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%v\t%v\t-\t0%%\t-\t%s\n", w.name, metric, unit, a, b, v)
		}
		row("failed", "ops", ra.Failed, rb.Failed, ra.Failed > 0 || rb.Failed > 0)
		diffs := statsDiffs(ra.Detail.SimStats, rb.Detail.SimStats)
		for _, d := range diffs {
			fmt.Fprintf(stderr, "bench: %s simulated statistics differ: %s\n", w.name, d)
		}
		row("sim_stats", "systems", len(ra.Detail.SimStats), len(rb.Detail.SimStats), len(diffs) > 0)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return code
}

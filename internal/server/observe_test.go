package server

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/obs"
)

// TestObservedRunMatchesGolden re-runs every pinned equivalence case with a
// series recorder and a metrics registry attached and demands the Result stay
// byte-identical to the committed goldens: observation must never perturb the
// simulation, down to the last float bit.
func TestObservedRunMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}

	tr := equivalenceTrace()
	cases := equivalenceCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		cfg := cases[name]
		rec := obs.NewSeries(0.01)
		reg := obs.NewRegistry()
		cfg.Series = rec
		cfg.Metrics = reg
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		if string(js) != string(w) {
			t.Errorf("%s: observed Result diverged from golden\n got: %s\nwant: %s",
				name, js, w)
		}
		if rec.Len() == 0 {
			t.Errorf("%s: series recorded no samples", name)
		}
		if reg.Counter("requests_completed_total").Value() == 0 {
			t.Errorf("%s: completed counter never incremented", name)
		}
	}
}

// TestSeriesAgreesWithResult checks the exactness contract: the dt-weighted
// mean of each sampled utilization series telescopes to the corresponding
// Result aggregate to within 1e-9.
func TestSeriesAgreesWithResult(t *testing.T) {
	tr := equivalenceTrace()
	rec := obs.NewSeries(0.005)
	cfg := NewConfig(L2SServer, 8, WithSeed(42), WithCacheBytes(2<<20),
		WithSeries(rec))
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no samples recorded")
	}

	samples := rec.Samples()
	// mean is the dt-weighted mean of one (node, metric) series; a column
	// with no samples fails the test rather than reading as NaN.
	mean := func(node int, metric string) float64 {
		t.Helper()
		var num, den float64
		for _, sm := range samples {
			if sm.Node == node && sm.Metric == metric {
				num += sm.V * sm.Dt
				den += sm.Dt
			}
		}
		if den == 0 {
			t.Fatalf("no %s samples for node %d", metric, node)
		}
		return num / den
	}
	const tol = 1e-9
	var diskSum float64
	for i := 0; i < cfg.Nodes; i++ {
		cpu := mean(i, SeriesCPUUtil)
		if d := math.Abs(cpu - res.PerNodeCPUUtil[i]); d > tol {
			t.Errorf("node %d: series cpu_util mean %v vs Result %v (diff %g)",
				i, cpu, res.PerNodeCPUUtil[i], d)
		}
		diskSum += mean(i, SeriesDiskUtil)
	}
	if d := math.Abs(diskSum/float64(cfg.Nodes) - res.MeanDiskUtil); d > tol {
		t.Errorf("series disk util mean %v vs Result.MeanDiskUtil %v (diff %g)",
			diskSum/float64(cfg.Nodes), res.MeanDiskUtil, d)
	}
	router := mean(obs.ClusterWide, SeriesRouterUtil)
	if d := math.Abs(router - res.RouterUtil); d > tol {
		t.Errorf("series router_util mean %v vs Result.RouterUtil %v (diff %g)",
			router, res.RouterUtil, d)
	}
}

// TestRunMetricsMirrorsResult runs with no warm-up so the mirrored counters
// and the measured Result count the same events exactly, and checks the
// registry's Prometheus exposition round-trips through the strict parser.
func TestRunMetricsMirrorsResult(t *testing.T) {
	tr := equivalenceTrace()
	reg := obs.NewRegistry()
	cfg := NewConfig(L2SServer, 8, WithSeed(42), WithCacheBytes(2<<20),
		WithWarmFraction(0), WithMetrics(reg))
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("requests_completed_total").Value(); got != res.Completed {
		t.Errorf("completed counter %d, Result.Completed %d", got, res.Completed)
	}
	if got := reg.Counter("requests_aborted_total").Value(); got != res.Aborted {
		t.Errorf("aborted counter %d, Result.Aborted %d", got, res.Aborted)
	}
	if got := reg.Counter("net_messages_total").Value(); got != res.ControlMessages {
		t.Errorf("messages counter %d, Result.ControlMessages %d", got, res.ControlMessages)
	}
	assigned := reg.Counter("requests_assigned_total").Value()
	forwarded := reg.Counter("requests_forwarded_total").Value()
	if assigned == 0 {
		t.Fatal("no assignments counted")
	}
	if got := float64(forwarded) / float64(assigned); math.Abs(got-res.ForwardedFrac) > 1e-12 {
		t.Errorf("counter forward frac %v, Result.ForwardedFrac %v", got, res.ForwardedFrac)
	}
	hits := reg.Counter("cache_hits_total").Value()
	misses := reg.Counter("cache_misses_total").Value()
	if hits+misses == 0 {
		t.Fatal("no cache accesses counted")
	}
	if got := float64(misses) / float64(hits+misses); math.Abs(got-res.MissRate) > 1e-12 {
		t.Errorf("counter miss rate %v, Result.MissRate %v", got, res.MissRate)
	}
	h := reg.Histogram("request_latency_seconds", LatencyBuckets)
	if h.Count() != res.Completed {
		t.Errorf("latency histogram has %d observations, want %d", h.Count(), res.Completed)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write exposition: %v", err)
	}
	scrape, err := obs.ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	if got := scrape.Values["requests_completed_total"]; got != float64(res.Completed) {
		t.Errorf("scraped completed %v, want %d", got, res.Completed)
	}
}

// TestSeriesArtifacts exercises the two export formats on a real run's
// series: every JSONL line must be a valid Sample document, and the Chrome
// trace must be well-formed JSON with counter events for every node.
func TestSeriesArtifacts(t *testing.T) {
	tr := equivalenceTrace()
	rec := obs.NewSeries(0.01)
	cfg := NewConfig(L2SServer, 4, WithSeed(3), WithCacheBytes(2<<20),
		WithSeries(rec))
	if _, err := Run(cfg, tr); err != nil {
		t.Fatal(err)
	}

	var jsonl bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(jsonl.Bytes(), "\n"), []byte("\n"))
	if len(lines) != rec.Len() {
		t.Fatalf("JSONL has %d lines for %d samples", len(lines), rec.Len())
	}
	var s obs.Sample
	if err := json.Unmarshal(lines[0], &s); err != nil {
		t.Fatalf("first JSONL line invalid: %v", err)
	}

	var chrome bytes.Buffer
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace invalid JSON: %v", err)
	}
	pids := make(map[int]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "C" {
			pids[ev.Pid] = true
		}
	}
	for i := 0; i <= cfg.Nodes; i++ { // pid 0 is cluster-wide, 1..N the nodes
		if !pids[i] {
			t.Errorf("chrome trace has no counter events for pid %d", i)
		}
	}
}

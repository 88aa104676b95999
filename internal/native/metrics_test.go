package native

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestMetricsEndpoint drives requests through a live cluster and scrapes
// every node's /metricsz: the exposition must parse under the strict
// Prometheus reader, carry the expected metric families, and agree with the
// node's own Snapshot counters.
func TestMetricsEndpoint(t *testing.T) {
	c := startTestCluster(t, 2, core.DefaultOptions())
	for i := 0; i < 20; i++ {
		resp, _ := get(t, c.URLs()[i%2]+fmt.Sprintf("/files/f/%d", i%8))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	var totalServed uint64
	for i := 0; i < 2; i++ {
		resp, body := get(t, c.URLs()[i]+"/metricsz")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d: /metricsz status %d", i, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("node %d: content type %q", i, ct)
		}
		scrape, err := obs.ParsePrometheus(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("node %d: exposition does not parse: %v\n%s", i, err, body)
		}
		for _, fam := range []string{
			"requests_served_total", "requests_proxied_total",
			"handoffs_received_total", "cache_hits_total", "cache_misses_total",
			"handoff_retries_total", "failovers_total",
			"handoff_dials_total", "handoff_conns",
			"gossip_sent_total", "gossip_failed_total", "gossip_retries_total",
			"load", "cache_used_bytes",
		} {
			if _, ok := scrape.Values[fam]; !ok {
				t.Errorf("node %d: missing metric %s", i, fam)
			}
		}
		if scrape.Types["request_seconds"] != "histogram" {
			t.Errorf("node %d: request_seconds type %q, want histogram",
				i, scrape.Types["request_seconds"])
		}
		snap := c.Node(i).Snapshot()
		if got := scrape.Values["requests_served_total"]; got != float64(snap.Served) {
			t.Errorf("node %d: scraped served %v, Snapshot says %d", i, got, snap.Served)
		}
		if got := scrape.Values["cache_hits_total"]; got != float64(snap.Hits) {
			t.Errorf("node %d: scraped hits %v, Snapshot says %d", i, got, snap.Hits)
		}
		totalServed += uint64(scrape.Values["requests_served_total"])
		if reqs := scrape.Values["request_seconds_count"]; reqs == 0 {
			t.Errorf("node %d: request_seconds histogram empty", i)
		}
	}
	// Every public request is served exactly once, wherever it lands.
	if totalServed != 20 {
		t.Errorf("cluster served %d requests in total, want 20", totalServed)
	}
}

// TestPprofEndpoints checks the profiling handlers are mounted on the
// node mux.
func TestPprofEndpoints(t *testing.T) {
	c := startTestCluster(t, 1, core.DefaultOptions())
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, _ := get(t, c.URLs()[0]+path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

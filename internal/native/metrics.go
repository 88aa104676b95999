// Per-node observability: every native node owns an obs.Registry holding
// its request, cache, hand-off, and gossip counters — the same counters
// Stats always reported, re-homed onto the shared metrics layer — plus
// point-in-time gauges and a request-latency histogram. The registry is
// served in Prometheus text format at /metricsz, next to the pprof
// endpoints, so a running cluster can be scraped and profiled node by node.
package native

import (
	"io"
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// RequestBuckets are the request_seconds histogram bounds, in seconds.
var RequestBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// nodeMetrics is one node's instrument set, all registered on reg.
type nodeMetrics struct {
	reg *obs.Registry

	served    *obs.Counter // requests served locally
	proxied   *obs.Counter // requests handed off to another node
	received  *obs.Counter // hand-offs served on behalf of others
	hits      *obs.Counter
	misses    *obs.Counter
	retries   *obs.Counter // hand-off delivery retries
	failovers *obs.Counter // hand-off failures served locally instead

	handoffDials *obs.Counter // outbound hand-off channels opened
	handoffConns *obs.Gauge   // of which open now, idle or in use; refreshed at scrape time

	gossipSent    *obs.Counter
	gossipFailed  *obs.Counter
	gossipRetries *obs.Counter

	load      *obs.Gauge // open requests, refreshed at scrape time
	cacheUsed *obs.Gauge // cache bytes resident, refreshed at scrape time

	request *obs.Histogram // public request latency at this entry node
}

func newNodeMetrics() *nodeMetrics {
	reg := obs.NewRegistry()
	return &nodeMetrics{
		reg:           reg,
		served:        reg.Counter("requests_served_total"),
		proxied:       reg.Counter("requests_proxied_total"),
		received:      reg.Counter("handoffs_received_total"),
		hits:          reg.Counter("cache_hits_total"),
		misses:        reg.Counter("cache_misses_total"),
		retries:       reg.Counter("handoff_retries_total"),
		failovers:     reg.Counter("failovers_total"),
		handoffDials:  reg.Counter("handoff_dials_total"),
		handoffConns:  reg.Gauge("handoff_conns"),
		gossipSent:    reg.Counter("gossip_sent_total"),
		gossipFailed:  reg.Counter("gossip_failed_total"),
		gossipRetries: reg.Counter("gossip_retries_total"),
		load:          reg.Gauge("load"),
		cacheUsed:     reg.Gauge("cache_used_bytes"),
		request:       reg.Histogram("request_seconds", RequestBuckets),
	}
}

// Metrics returns the node's metric registry (for tests and embedding in a
// larger process; HTTP scraping goes through /metricsz).
func (n *Node) Metrics() *obs.Registry { return n.metrics.reg }

// WriteMetrics writes the node's Prometheus text exposition. Gauges are
// refreshed first: they are point-in-time readings, so scrape time is the
// only time that matters.
func (n *Node) WriteMetrics(w io.Writer) error {
	n.metrics.load.Set(float64(n.Load()))
	n.metrics.cacheUsed.Set(float64(n.cacheUsed()))
	n.metrics.handoffConns.Set(float64(n.handoffs.outbound.len()))
	return n.metrics.reg.WritePrometheus(w)
}

// handleMetrics serves WriteMetrics at /metricsz.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = n.WriteMetrics(w)
}

// registerDebug mounts /metricsz and the standard pprof endpoints on the
// node's mux. The node serves on its own mux rather than
// http.DefaultServeMux, so the pprof handlers are wired explicitly.
func (n *Node) registerDebug(mux *http.ServeMux) {
	mux.HandleFunc("/metricsz", n.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

package native

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Cluster is a running set of native nodes.
type Cluster struct {
	cfg  clusterConfig
	urls []string // immutable after Start

	mu        sync.RWMutex
	nodes     []*Node
	servers   []*http.Server
	listeners []net.Listener

	rrMu sync.Mutex
	rr   int
}

// Start launches a cluster of nodes on ephemeral loopback ports and wires
// them together: shared catalog, per-node caches and state replicas,
// gossip with bounded retry, heartbeat failure detection, and server-set
// anti-entropy. Call Shutdown when done.
func Start(opts ...Option) (*Cluster, error) {
	cfg := defaultClusterConfig()
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.store == nil {
		return nil, fmt.Errorf("native: cluster needs a store (use WithStore)")
	}
	c := &Cluster{cfg: cfg}

	// Reserve a listener (and thus an address) per node first, so every
	// node can be born knowing the full peer list.
	for i := 0; i < cfg.nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.closeListeners()
			return nil, fmt.Errorf("native: listening: %w", err)
		}
		c.listeners = append(c.listeners, ln)
		c.urls = append(c.urls, "http://"+ln.Addr().String())
	}
	if cfg.faults != nil {
		cfg.faults.register(c.urls)
	}

	for i := 0; i < cfg.nodes; i++ {
		node := c.newNode(i)
		srv := &http.Server{Handler: node.Handler()}
		c.nodes = append(c.nodes, node)
		c.servers = append(c.servers, srv)
		node.startLoops()
		go func(srv *http.Server, ln net.Listener) {
			_ = srv.Serve(ln)
		}(srv, c.listeners[i])
	}
	return c, nil
}

func (c *Cluster) closeListeners() {
	for _, ln := range c.listeners {
		_ = ln.Close()
	}
}

// URLs returns each node's base URL.
func (c *Cluster) URLs() []string {
	out := make([]string, len(c.urls))
	copy(out, c.urls)
	return out
}

// Node returns the i'th node (the current incarnation, after any Restart).
func (c *Cluster) Node(i int) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[i]
}

// Len returns the cluster size.
func (c *Cluster) Len() int { return len(c.urls) }

// NextURL returns node base URLs in round-robin order — the client-side
// stand-in for round-robin DNS.
func (c *Cluster) NextURL() string {
	c.rrMu.Lock()
	defer c.rrMu.Unlock()
	u := c.urls[c.rr]
	c.rr = (c.rr + 1) % len(c.urls)
	return u
}

// Stop crashes one node — abruptly, as a real crash would: the listener
// and all its connections close immediately, in-flight responses are
// truncated, and nothing is drained. The rest of the cluster detects the
// death through its failure detectors.
func (c *Cluster) Stop(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[i].stopLoops()
	err := c.servers[i].Close()
	// The listener is closed first, so a peer whose hand-off dies here
	// finds nothing to reconnect to.
	c.nodes[i].closeConns()
	return err
}

// Restart brings a previously stopped node back on its old address with a
// cold cache and empty state — crash recovery. The rejoining node
// announces itself through heartbeats; peers mark it alive again and
// anti-entropy restores its server-set replica.
func (c *Cluster) Restart(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	addr := strings.TrimPrefix(c.urls[i], "http://")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("native: restarting node %d: %w", i, err)
	}
	node := c.newNode(i)
	srv := &http.Server{Handler: node.Handler()}
	c.listeners[i], c.nodes[i], c.servers[i] = ln, node, srv
	node.startLoops()
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// Shutdown drains every node gracefully: gossip loops stop first (so the
// cluster stops advertising), then each HTTP server finishes its in-flight
// requests before closing, bounded by a three-second deadline past which it
// is closed outright. The hand-off channels those requests may still be
// using close only after every server has drained.
func (c *Cluster) Shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		n.stopLoops()
	}
	for _, srv := range c.servers {
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
	}
	for _, n := range c.nodes {
		n.closeConns()
	}
}

// Totals aggregates node statistics. DeadPeers is the worst single node's
// view (beliefs differ per node; summing them would double-count).
func (c *Cluster) Totals() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total Stats
	total.ID = -1
	for _, n := range c.nodes {
		s := n.Snapshot()
		total.Served += s.Served
		total.Proxied += s.Proxied
		total.Received += s.Received
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Retries += s.Retries
		total.Failovers += s.Failovers
		total.GossipOut += s.GossipOut
		total.GossipFail += s.GossipFail
		total.GossipRetry += s.GossipRetry
		total.HandoffDials += s.HandoffDials
		total.HandoffConns += s.HandoffConns
		if s.DeadPeers > total.DeadPeers {
			total.DeadPeers = s.DeadPeers
		}
	}
	if total.Hits+total.Misses > 0 {
		total.HitRate = float64(total.Hits) / float64(total.Hits+total.Misses)
	}
	return total
}

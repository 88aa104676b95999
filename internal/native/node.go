package native

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
)

// Node is one cluster member: an HTTP server with its own cache, its own
// replica of the distribution state, a gossip client, hand-off channels to
// and from its peers, and a failure detector for them.
type Node struct {
	id    int
	peers []string // base URLs indexed by node id (self included)
	cfg   *clusterConfig

	state  *state
	gossip *gossiper
	health *healthTracker
	rng    *lockedRand

	// cache is the node's main-memory cache: the simulator's LRU, deciding
	// hit or miss by FileID and size exactly as a simulated node's does.
	// Bodies always come from the store; the cache only accounts for them.
	cacheMu sync.Mutex
	cache   *cache.LRU

	// transport carries the node's control traffic and nothing else. It is
	// the node's own, so that stopping the node can close its idle
	// connections: one left open in a shared pool keeps the peer's serve
	// goroutine, and through it that node's store, alive for 90 s.
	transport *http.Transport

	handoffs handoffs

	// idHeader[i] is node i's id as a ready-made header value
	// (X-Served-By, X-Forwarded-By), shared by every reply.
	idHeader [][]string

	open atomic.Int64 // requests being serviced here (the load metric)

	// metrics owns every other counter the node keeps (see metrics.go);
	// Snapshot and /statsz read the same registry /metricsz exposes.
	metrics *nodeMetrics

	// ctx ends when the node stops: it halts the gossip loop and aborts
	// every control message still in flight.
	ctx  context.Context
	stop context.CancelFunc

	syncMu sync.Mutex
	syncRR int // round-robin cursor for anti-entropy peers

	mux *http.ServeMux
}

// newNode builds node i of the cluster from its configuration, which the
// options have already validated; the Cluster serves its Handler.
func (c *Cluster) newNode(i int) *Node {
	cfg := &c.cfg
	transport := http.DefaultTransport.(*http.Transport).Clone()
	var control http.RoundTripper = transport
	if cfg.faults != nil {
		control = cfg.faults.transport(transport)
	}
	rng := newLockedRand(cfg.seed + int64(i))
	m := newNodeMetrics()
	ctx, stop := context.WithCancel(context.Background())
	n := &Node{
		id:        i,
		peers:     c.urls,
		cfg:       cfg,
		metrics:   m,
		state:     newState(i, len(c.urls), cfg.store.Len(), cfg.l2s),
		gossip:    newGossiper(ctx, i, c.urls, cfg.retry, control, rng, m),
		cache:     cache.NewLRU(cfg.cacheBytes),
		health:    newHealthTracker(i, len(c.urls), cfg.health),
		rng:       rng,
		transport: transport,
		handoffs:  handoffs{pools: make([]peerPool, len(c.urls))},
		idHeader:  make([][]string, len(c.urls)),
		ctx:       ctx,
		stop:      stop,
	}
	n.cache.SetMetrics(cache.Metrics{Hits: m.hits, Misses: m.misses})
	for i := range n.idHeader {
		n.idHeader[i] = []string{strconv.Itoa(i)}
	}
	n.health.onDead = n.peerDied
	n.gossip.onResult = func(peer int, ok bool) {
		if ok {
			n.health.observeSuccess(peer)
		} else {
			n.health.observeFailure(peer)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/files/", n.handleFiles)
	mux.HandleFunc("/local/", n.handleLocal)
	mux.HandleFunc(loadPath, n.handleLoadUpdate)
	mux.HandleFunc(syncPath, n.handleSync)
	mux.HandleFunc(handoffPath, n.handleHandoff)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/statsz", n.handleStats)
	n.registerDebug(mux)
	n.mux = mux
	return n
}

// startLoops launches the heartbeat and anti-entropy goroutine; stopLoops
// (idempotent) halts it, aborts the control messages in flight and closes
// the connections they leave idle. The Cluster drives both.
//
// The order matters to the peers' shutdown: a message sent after
// CloseIdleConnections would let a dial that lost its race to a returning
// connection be parked unused, which the peer's http.Server takes for a new
// connection and waits five seconds on. With the context cancelled first no
// message gets that far, and the transport closes such a dial instead.
func (n *Node) startLoops() { go n.gossipLoop() }

func (n *Node) stopLoops() {
	n.stop()
	n.transport.CloseIdleConnections()
}

// closeConns closes what the node's HTTP server does not track: the
// hand-off channels in both directions, and the control connections that
// gossip still in flight at stopLoops has parked since. The Cluster calls it
// after the server has closed, so nothing new can arrive.
func (n *Node) closeConns() {
	n.handoffs.close()
	n.transport.CloseIdleConnections()
}

// gossipLoop drives active failure detection and state anti-entropy:
// heartbeats go to every peer (dead ones included — that is how a
// restarted node is re-detected), and each sync tick pushes the full
// server-set state to one peer, round robin.
func (n *Node) gossipLoop() {
	hb := time.NewTicker(n.cfg.health.HeartbeatEvery)
	defer hb.Stop()
	sync := time.NewTicker(n.cfg.health.SyncEvery)
	defer sync.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-hb.C:
			n.gossip.broadcast(loadPath, &LoadUpdate{Node: n.id, Load: n.Load()}, nil, 1)
		case <-sync.C:
			n.syncToPeer()
		}
	}
}

// syncToPeer pushes this replica's full server-set state to the next peer
// in round-robin order. Dead peers are not skipped: a rejoining node
// recovers its state through exactly this path.
func (n *Node) syncToPeer() {
	sets := n.state.exportSets()
	if len(sets) == 0 || len(n.peers) < 2 {
		return
	}
	n.syncMu.Lock()
	peer := n.syncRR % len(n.peers)
	n.syncRR++
	if peer == n.id {
		peer = n.syncRR % len(n.peers)
		n.syncRR++
	}
	n.syncMu.Unlock()
	n.gossip.sendTo(peer, syncPath, sets, 1)
}

// peerDied is the failure detector's dead-transition hook: evict the peer
// from every server set and gossip the repaired sets so the cluster
// reconverges on live replicas only.
func (n *Node) peerDied(peer int) {
	updates := n.state.evictNode(peer)
	if len(updates) > 0 {
		go n.gossip.broadcast(syncPath, updates, n.peerDead, 0)
	}
}

// peerDead is the skip filter for routine gossip.
func (n *Node) peerDead(i int) bool { return !n.health.alive(i) }

// Handler returns the node's HTTP handler.
func (n *Node) Handler() http.Handler { return n.mux }

// ID returns the node's cluster id.
func (n *Node) ID() int { return n.id }

// Load returns the node's current open-request count.
func (n *Node) Load() int { return int(n.open.Load()) }

// serverSet exposes the node's replica of a file's server set (tests).
func (n *Node) serverSet(f cache.FileID) []int { return n.state.serverSet(f) }

// peerHealth exposes the node's belief about a peer (tests).
func (n *Node) peerHealth(i int) PeerState { return n.health.state(i) }

// alive reports whether this node believes peer i is up.
func (n *Node) alive(i int) bool { return n.health.alive(i) }

// handleFiles is the public entry point: resolve the path to its file, run
// the distribution algorithm, then serve locally or hand off. A path that
// names no file is refused here, before it can touch any state.
func (n *Node) handleFiles(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/files")
	if path == "" || path == "/" {
		http.Error(w, "missing file path", http.StatusBadRequest)
		return
	}
	f, ok := n.cfg.store.ID(path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	start := time.Now()
	defer func() { n.metrics.request.Observe(time.Since(start).Seconds()) }()
	svc, changed := n.state.decide(f, n.alive)
	if changed != nil {
		go n.gossip.broadcast(syncPath, []SetUpdate{*changed}, n.peerDead, 0)
	}
	if svc == n.id {
		n.metrics.served.Inc()
		n.serveLocal(w, f)
		return
	}
	n.metrics.proxied.Inc()
	if err := n.proxyWithRetry(svc, f, w); err != nil {
		if errors.Is(err, errProxyStarted) {
			// The peer died mid-response: the status line is already on the
			// wire, so nothing can be rewritten. The client sees a truncated
			// body and retries against another entry node.
			return
		}
		// The chosen node is unreachable: the failure detector has been
		// told on every attempt; serve the client ourselves and let the
		// next decision rebuild the server set.
		n.metrics.failovers.Inc()
		n.metrics.served.Inc()
		n.serveLocal(w, f)
	}
}

// handleLocal is the HTTP view of the data path, without distribution: what
// a hand-off frame asks of this node, reachable with curl. Peers use the
// hand-off channel (handoff.go), not this endpoint.
func (n *Node) handleLocal(w http.ResponseWriter, r *http.Request) {
	f, ok := n.cfg.store.ID(strings.TrimPrefix(r.URL.Path, "/local"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	n.metrics.received.Inc()
	n.serveLocal(w, f)
}

// lookup is the data path every serving endpoint shares: the cache access,
// the miss penalty when it misses, the serve penalty, counted as one open
// request while it runs.
func (n *Node) lookup(f cache.FileID) []byte {
	n.trackLoad(1)
	defer n.trackLoad(-1)

	content := n.cfg.store.Body(f)
	n.cacheMu.Lock()
	hit := n.cache.Access(f, int64(len(content)))
	n.cacheMu.Unlock()
	if !hit && n.cfg.missPenalty > 0 {
		time.Sleep(n.cfg.missPenalty)
	}
	if n.cfg.servePenalty > 0 {
		time.Sleep(n.cfg.servePenalty)
	}
	return content
}

// cacheUsed returns the bytes the node's cache holds.
func (n *Node) cacheUsed() int64 {
	n.cacheMu.Lock()
	defer n.cacheMu.Unlock()
	return n.cache.Used()
}

// serveLocal answers the client from this node's own data path.
func (n *Node) serveLocal(w http.ResponseWriter, f cache.FileID) {
	content := n.lookup(f)
	n.fileHeaders(w.Header(), n.id, int64(len(content)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(content)
}

var octetStream = []string{"application/octet-stream"}

// fileHeaders sets a file reply's headers. The explicit Content-Length keeps
// bodies past net/http's 2 KB buffer from being chunk-encoded; the other
// values are shared slices, assigned rather than formatted per request (the
// keys are already in canonical form).
func (n *Node) fileHeaders(h http.Header, servedBy int, length int64) {
	h["Content-Length"] = []string{strconv.FormatInt(length, 10)}
	h["Content-Type"] = octetStream
	h["X-Served-By"] = n.idHeader[servedBy]
}

// trackLoad adjusts the open-request count and gossips it when it has
// drifted far enough.
func (n *Node) trackLoad(delta int64) {
	v := int(n.open.Add(delta))
	if n.state.setLocalLoad(v) {
		go n.gossipLoad(v)
	}
}

// gossipLoad broadcasts load v, then keeps broadcasting while the load
// keeps drifting. It is the node's only load broadcast in flight, so peers
// receive its announcements in the order they were made.
func (n *Node) gossipLoad(v int) {
	for announce := true; announce; v, announce = n.state.loadDelivered() {
		n.gossip.broadcast(loadPath, &LoadUpdate{Node: n.id, Load: v}, n.peerDead, 0)
	}
}

// errProxyStarted marks a hand-off that failed after response bytes were
// already written: no local fallback is possible.
var errProxyStarted = errors.New("native: hand-off failed mid-response")

// proxyWithRetry relays the request to the service node with bounded
// exponential backoff + jitter, feeding every outcome to the failure
// detector. It gives up early once the peer is declared dead.
func (n *Node) proxyWithRetry(svc int, f cache.FileID, w http.ResponseWriter) error {
	if n.peers[svc] == "" {
		return fmt.Errorf("native: no address for node %d", svc)
	}
	for attempt := 1; ; attempt++ {
		started, err := n.handoffOnce(svc, f, w)
		if err == nil {
			n.health.observeSuccess(svc)
			return nil
		}
		n.health.observeFailure(svc)
		if started {
			return errProxyStarted
		}
		if attempt >= n.cfg.retry.Attempts || !n.health.alive(svc) {
			return err
		}
		n.metrics.retries.Inc()
		time.Sleep(n.cfg.retry.backoff(attempt, n.rng))
	}
}

// errNegativeLoad refuses a load no node can have: it would win every
// least-loaded choice in the cluster.
const errNegativeLoad = "negative load"

// handleLoadUpdate receives a load announcement or a heartbeat: proof the
// sender is alive (the rejoin path for restarted nodes) plus its load.
func (n *Node) handleLoadUpdate(w http.ResponseWriter, r *http.Request) {
	var u LoadUpdate
	if err := decodeJSON(r, &u, 1<<10); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if u.Load < 0 {
		http.Error(w, errNegativeLoad, http.StatusBadRequest)
		return
	}
	n.health.observeSuccess(u.Node)
	n.state.applyLoad(u.Node, u.Load)
	w.WriteHeader(http.StatusOK)
}

// applyFilteredSet installs a gossiped set after dropping members this node
// believes are dead; a filtered update gets a version bump so the local
// repair outranks the stale original during anti-entropy.
func (n *Node) applyFilteredSet(u SetUpdate) {
	if len(u.Nodes) > 0 {
		if kept := keepAlive(u.Nodes, n.alive); len(kept) != len(u.Nodes) {
			u.Nodes = kept
			u.Version++
		}
	}
	n.state.applySet(u)
}

// handleSync receives server-set updates and merges them version by
// version: one changed set after a decision, the sets a dead peer left, or
// a peer's full state (anti-entropy).
func (n *Node) handleSync(w http.ResponseWriter, r *http.Request) {
	var us []SetUpdate
	if err := decodeJSON(r, &us, 1<<22); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for _, u := range us {
		n.applyFilteredSet(u)
	}
	w.WriteHeader(http.StatusOK)
}

// Stats is one node's observable state. Field vocabulary matches the
// simulator's server.Result where the concepts overlap (Served, Proxied,
// Received, HitRate), plus the fault-tolerance counters: Retries (hand-off
// delivery retries), Failovers (hand-offs exhausted and served locally),
// and DeadPeers (peers this node currently believes dead).
type Stats struct {
	ID          int     `json:"id"`
	Load        int     `json:"load"`
	Served      uint64  `json:"served"`
	Proxied     uint64  `json:"proxied"`
	Received    uint64  `json:"received"`
	Hits        uint64  `json:"hits"`
	Misses      uint64  `json:"misses"`
	Retries     uint64  `json:"retries"`
	Failovers   uint64  `json:"failovers"`
	DeadPeers   int     `json:"dead_peers"`
	HitRate     float64 `json:"hit_rate"`
	CacheUsed   int64   `json:"cache_used"`
	GossipOut   uint64  `json:"gossip_out"`
	GossipFail  uint64  `json:"gossip_fail"`
	GossipRetry uint64  `json:"gossip_retry"`

	// The outbound hand-off channels: how many were ever dialled, and how
	// many are open now (idle or in use). A warm pool stops dialling.
	HandoffDials uint64 `json:"handoff_dials"`
	HandoffConns int    `json:"handoff_conns"`
}

// Snapshot returns current statistics.
func (n *Node) Snapshot() Stats {
	hits, misses := n.metrics.hits.Value(), n.metrics.misses.Value()
	var rate float64
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	sent, failed, retried := n.gossip.stats()
	return Stats{
		ID:          n.id,
		Load:        n.Load(),
		Served:      n.metrics.served.Value(),
		Proxied:     n.metrics.proxied.Value(),
		Received:    n.metrics.received.Value(),
		Hits:        hits,
		Misses:      misses,
		Retries:     n.metrics.retries.Value(),
		Failovers:   n.metrics.failovers.Value(),
		DeadPeers:   n.health.deadCount(),
		HitRate:     rate,
		CacheUsed:   n.cacheUsed(),
		GossipOut:   sent,
		GossipFail:  failed,
		GossipRetry: retried,

		HandoffDials: n.metrics.handoffDials.Value(),
		HandoffConns: n.handoffs.outbound.len(),
	}
}

// PeerView is one row of a node's cluster view: its belief about a peer.
type PeerView struct {
	Node  int    `json:"node"`
	State string `json:"state"`
	Load  int    `json:"load"` // this node's (possibly stale) view
}

// ClusterView is the full cluster snapshot a node serves at /statsz: its
// own counters plus its view of every peer's health and load.
type ClusterView struct {
	Self  Stats      `json:"self"`
	Peers []PeerView `json:"peers"`
}

// ClusterSnapshot returns the node's view of the whole cluster.
func (n *Node) ClusterSnapshot() ClusterView {
	states := n.health.snapshot()
	view := ClusterView{Self: n.Snapshot(), Peers: make([]PeerView, 0, len(states))}
	for i, s := range states {
		if i == n.id {
			continue
		}
		view.Peers = append(view.Peers, PeerView{Node: i, State: s.String(), Load: n.state.viewLoad(i)})
	}
	return view
}

func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(n.ClusterSnapshot())
}

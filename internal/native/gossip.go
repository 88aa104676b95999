package native

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Control-plane messages. All are tiny JSON documents POSTed to the peers'
// control endpoints — the HTTP equivalent of the paper's M-VIA
// point-to-point broadcasts. Handlers are idempotent, so retried or
// duplicated deliveries are harmless.

// LoadUpdate announces a node's current open-request count. Load
// announcements and heartbeats both send it to loadPath, so every heartbeat
// doubles as load anti-entropy.
type LoadUpdate struct {
	Node int `json:"node"`
	Load int `json:"load"`
}

// SetUpdate announces a modification to a file's server set. Version is a
// per-file monotonic counter; replicas keep the highest version they have
// seen (see state.applySet). Set changes travel to syncPath as a list: one
// update after a decision, many after a death or in anti-entropy.
type SetUpdate struct {
	File    cache.FileID `json:"file"`
	Nodes   []int        `json:"nodes"`
	Version uint64       `json:"version"`
}

const (
	loadPath = "/control/load"
	syncPath = "/control/sync"
)

// gossiper pushes control messages to the cluster's peers with bounded
// retry and reports per-peer delivery outcomes to the failure detector.
type gossiper struct {
	ctx     context.Context // the owning node's: done once it stops
	self    int
	peers   []string // base URLs, indexed by node id; peers[self] unused
	client  *http.Client
	timeout time.Duration
	retry   RetryPolicy
	rng     *lockedRand

	// onResult is invoked once per delivery attempt with the outcome; the
	// node wires it to its health tracker.
	onResult func(peer int, ok bool)

	// Delivery counters, homed on the owning node's metric registry:
	// messages attempted (not per-retry), messages undelivered after the
	// retry budget, and extra attempts beyond the first.
	sent, failures, retries *obs.Counter
}

func newGossiper(ctx context.Context, self int, peers []string, retry RetryPolicy, transport http.RoundTripper, rng *lockedRand, m *nodeMetrics) *gossiper {
	if rng == nil {
		rng = newLockedRand(int64(self) + 1)
	}
	if m == nil {
		m = newNodeMetrics()
	}
	return &gossiper{
		ctx:      ctx,
		sent:     m.gossipSent,
		failures: m.gossipFailed,
		retries:  m.gossipRetries,
		self:     self,
		peers:    peers,
		client:   &http.Client{Timeout: 2 * time.Second, Transport: transport},
		timeout:  2 * time.Second,
		retry:    retry,
		rng:      rng,
	}
}

// broadcast POSTs the JSON document to every peer concurrently and returns
// when all deliveries have been attempted. skip (optional) suppresses
// individual peers — the node passes its dead-peer filter for load and set
// gossip but not for heartbeats, which must keep probing dead peers to
// notice a rejoin. attempts caps delivery tries for this message; <= 0
// means the full retry budget.
func (g *gossiper) broadcast(path string, doc any, skip func(int) bool, attempts int) {
	body, err := json.Marshal(doc)
	if err != nil {
		return
	}
	var wg sync.WaitGroup
	for id, base := range g.peers {
		if id == g.self || base == "" || (skip != nil && skip(id)) {
			continue
		}
		wg.Add(1)
		go func(id int, base string) {
			defer wg.Done()
			g.send(id, base+path, body, attempts)
		}(id, base)
	}
	wg.Wait()
}

// sendTo delivers one encoded document to one peer.
func (g *gossiper) sendTo(peer int, path string, body []byte, attempts int) bool {
	base := g.peers[peer]
	if peer == g.self || base == "" {
		return false
	}
	return g.send(peer, base+path, body, attempts)
}

// send delivers one message with bounded exponential backoff + jitter.
// Every attempt's outcome feeds the failure detector, so a run of losses
// advances the peer through suspect to dead even within one message.
func (g *gossiper) send(peer int, url string, body []byte, attempts int) bool {
	if attempts <= 0 {
		attempts = g.retry.Attempts
	}
	g.sent.Inc()
	for attempt := 1; ; attempt++ {
		ok := g.post(url, body)
		if !ok && g.ctx.Err() != nil {
			// This node stopped: the failure says nothing about the peer.
			g.failures.Inc()
			return false
		}
		if g.onResult != nil {
			g.onResult(peer, ok)
		}
		if ok {
			return true
		}
		if attempt >= attempts {
			g.failures.Inc()
			return false
		}
		g.retries.Inc()
		time.Sleep(g.retry.backoff(attempt, g.rng))
	}
}

func (g *gossiper) post(url string, body []byte) bool {
	ctx, cancel := context.WithTimeout(g.ctx, g.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stats reports how many control messages were sent, how many exhausted
// their retry budget, and how many retry attempts were spent.
func (g *gossiper) stats() (sent, failures, retries uint64) {
	return g.sent.Value(), g.failures.Value(), g.retries.Value()
}

// decodeJSON is a bounded JSON body decoder for the control handlers.
func decodeJSON(r *http.Request, into any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit))
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("native: decoding control message: %w", err)
	}
	return nil
}

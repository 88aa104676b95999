package native

import (
	"fmt"
	"sync"
	"time"
)

// PeerState is one node's belief about a peer's availability.
type PeerState int

const (
	// PeerAlive peers receive hand-offs and gossip normally.
	PeerAlive PeerState = iota
	// PeerSuspect peers have missed at least SuspectAfter consecutive
	// deliveries; they stay in server sets but are watched.
	PeerSuspect
	// PeerDead peers have missed DeadAfter consecutive deliveries; they are
	// evicted from server sets and skipped for hand-offs until a heartbeat
	// reaches them again (rejoin).
	PeerDead
)

func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	}
	return "unknown"
}

// HealthOptions tunes failure detection and anti-entropy.
type HealthOptions struct {
	// HeartbeatEvery is the period of the gossip heartbeat each node
	// broadcasts to every peer (dead ones included — that is how a
	// restarted node is re-detected).
	HeartbeatEvery time.Duration
	// SyncEvery is the period of server-set anti-entropy: each tick the
	// node pushes its full set state to one peer, round robin.
	SyncEvery time.Duration
	// SuspectAfter is the number of consecutive delivery failures that
	// mark a peer suspect.
	SuspectAfter int
	// DeadAfter is the number of consecutive delivery failures that mark a
	// peer dead. Must be >= SuspectAfter.
	DeadAfter int
}

// DefaultHealthOptions returns the live-traffic failure-detection tuning:
// half-second heartbeats, two-second anti-entropy, suspect on the first
// miss, dead on the third.
func DefaultHealthOptions() HealthOptions {
	return HealthOptions{
		HeartbeatEvery: 500 * time.Millisecond,
		SyncEvery:      2 * time.Second,
		SuspectAfter:   1,
		DeadAfter:      3,
	}
}

func (h HealthOptions) validate() error {
	if h.HeartbeatEvery <= 0 {
		return fmt.Errorf("native: heartbeat period must be positive, got %v", h.HeartbeatEvery)
	}
	if h.SyncEvery <= 0 {
		return fmt.Errorf("native: sync period must be positive, got %v", h.SyncEvery)
	}
	if h.SuspectAfter < 1 {
		return fmt.Errorf("native: SuspectAfter must be >= 1, got %d", h.SuspectAfter)
	}
	if h.DeadAfter < h.SuspectAfter {
		return fmt.Errorf("native: DeadAfter (%d) must be >= SuspectAfter (%d)", h.DeadAfter, h.SuspectAfter)
	}
	return nil
}

// healthTracker is one node's failure detector: consecutive delivery
// failures move a peer alive -> suspect -> dead; any successful delivery or
// received load message (announcement or heartbeat) moves it back to alive. Transitions fire callbacks
// (outside the lock) so the owner can repair server sets.
type healthTracker struct {
	mu     sync.Mutex
	self   int
	opts   HealthOptions
	states []PeerState
	fails  []int

	onDead  func(peer int) // fired on transition to PeerDead
	onAlive func(peer int) // fired on transition dead -> alive (rejoin)
}

func newHealthTracker(self, n int, opts HealthOptions) *healthTracker {
	return &healthTracker{
		self:   self,
		opts:   opts,
		states: make([]PeerState, n),
		fails:  make([]int, n),
	}
}

// observeSuccess records direct evidence that a peer is up (a delivery
// succeeded, or a load message arrived from it).
func (h *healthTracker) observeSuccess(peer int) {
	if peer < 0 || peer >= len(h.states) || peer == h.self {
		return
	}
	h.mu.Lock()
	was := h.states[peer]
	h.states[peer] = PeerAlive
	h.fails[peer] = 0
	cb := h.onAlive
	h.mu.Unlock()
	if was == PeerDead && cb != nil {
		cb(peer)
	}
}

// observeFailure records a delivery failure and advances the peer through
// the suspect/dead lifecycle.
func (h *healthTracker) observeFailure(peer int) {
	if peer < 0 || peer >= len(h.states) || peer == h.self {
		return
	}
	h.mu.Lock()
	h.fails[peer]++
	was := h.states[peer]
	switch {
	case h.fails[peer] >= h.opts.DeadAfter:
		h.states[peer] = PeerDead
	case h.fails[peer] >= h.opts.SuspectAfter:
		if was == PeerAlive {
			h.states[peer] = PeerSuspect
		}
	}
	now := h.states[peer]
	cb := h.onDead
	h.mu.Unlock()
	if was != PeerDead && now == PeerDead && cb != nil {
		cb(peer)
	}
}

// alive reports whether the peer should still receive traffic (suspect
// peers do; dead ones do not). A node always trusts itself.
func (h *healthTracker) alive(peer int) bool {
	if peer == h.self {
		return true
	}
	if peer < 0 || peer >= len(h.states) {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.states[peer] != PeerDead
}

// state returns the belief about one peer.
func (h *healthTracker) state(peer int) PeerState {
	if peer == h.self {
		return PeerAlive
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.states[peer]
}

// deadCount returns how many peers are currently believed dead.
func (h *healthTracker) deadCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for i, s := range h.states {
		if i != h.self && s == PeerDead {
			n++
		}
	}
	return n
}

// snapshot copies the per-peer states.
func (h *healthTracker) snapshot() []PeerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]PeerState(nil), h.states...)
}

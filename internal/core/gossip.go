package core

// LoadGossip is L2S's load-dissemination rule (Section 5.1), shared by the
// simulator's L2S and the live cluster's nodes: node n announces its load
// once it has drifted by at least delta connections from the value it last
// announced, and announces nothing more while that announcement is in
// flight. The in-flight guard keeps a node's announcements in order and
// makes the payload of the one in flight the node's last announced value.
type LoadGossip struct {
	delta    int
	lastSent []int  // lastSent[n]: the load node n last announced
	inFlight []bool // inFlight[n]: node n's announcement is undelivered
}

// NewLoadGossip returns the rule for a cluster of n nodes that broadcast on
// a drift of delta connections (Options.BroadcastDelta).
func NewLoadGossip(n, delta int) LoadGossip {
	return LoadGossip{delta: delta, lastSent: make([]int, n), inFlight: make([]bool, n)}
}

// Due reports whether node n, now at load cur, must announce it. When it
// must, cur becomes the announced value and the announcement is in flight
// until Delivered.
func (g *LoadGossip) Due(n, cur int) bool {
	if g.inFlight[n] {
		return false
	}
	drift := cur - g.lastSent[n]
	if drift < 0 {
		drift = -drift
	}
	if drift < g.delta {
		return false
	}
	g.lastSent[n] = cur
	g.inFlight[n] = true
	return true
}

// Delivered ends node n's announcement in flight and returns the load it
// carried. The caller should ask Due again: the load may have drifted
// while the announcement travelled.
func (g *LoadGossip) Delivered(n int) int {
	g.inFlight[n] = false
	return g.lastSent[n]
}

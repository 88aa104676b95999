// Package policy defines the request-distribution interface of the cluster
// server simulator and implements the baseline policies the paper compares
// against L2S: the traditional fewest-connections server, round-robin DNS,
// and the LARD front-end server with replication (LARD/R) of Pai et al.
package policy

import (
	"math"

	"repro/internal/cache"
)

// FileID aliases the cache package's file identifier.
type FileID = cache.FileID

// Env is the view of the cluster a distribution policy gets: node count,
// the simulation clock, true node loads (a node always knows its own load
// exactly; policies that rely on disseminated values must maintain them via
// control messages), node liveness, and control messaging that charges the
// simulated CPUs and network interfaces.
type Env interface {
	// N returns the number of cluster nodes.
	N() int
	// Now returns the current simulated time in seconds.
	Now() float64
	// Load returns node n's true number of open connections.
	Load(n int) int
	// Alive reports whether node n has not crashed.
	Alive(n int) bool
	// SendControl delivers a small control message from one node to
	// another, charging message costs, then calls onDeliver.
	SendControl(from, to int, onDeliver func())
	// BroadcastControl delivers a small control message from one node to
	// all others, charging message costs, then calls onDeliver once.
	BroadcastControl(from int, onDeliver func())
}

// Distributor decides where connections land and which node services each
// request. Implementations are driven by the server simulator:
//
//	n0 := d.Initial(f)            // connection arrives (switch or DNS)
//	svc := d.Service(n0, f)       // decision after parsing at n0
//	... simulator runs the request, then ...
//	d.OnComplete(svc, f)
//
// The simulator updates true loads around these calls: the service node's
// load is incremented right after Service returns (followed by OnAssign)
// and decremented right before OnComplete.
type Distributor interface {
	// Name identifies the policy in results.
	Name() string
	// FrontEnd returns the id of a dedicated front-end node that cannot
	// service requests, or -1 when all nodes are servers.
	FrontEnd() int
	// Initial returns the node at which the next connection arrives.
	Initial(f FileID) int
	// Service returns the node that will service the request, given that
	// the connection was accepted by node initial.
	Service(initial int, f FileID) int
	// OnAssign notifies that a connection was assigned to node n (its load
	// already incremented).
	OnAssign(n int)
	// OnComplete notifies that a request for f serviced at node n finished
	// (its load already decremented).
	OnComplete(n int, f FileID)
}

// Dispatched is implemented by policies whose decisions require consulting
// a remote dispatcher node (Section 6's scalable LARD variant): before
// Service takes effect, the simulator charges a query round trip to the
// dispatcher plus the given CPU time there.
type Dispatched interface {
	Dispatcher() (node int, cpuSec float64)
}

// ClientAware is implemented by arrival policies that need the identity of
// the client behind the next connection (e.g. CachedDNS). The simulator
// calls SetNextClient immediately before Initial.
type ClientAware interface {
	SetNextClient(c int32)
}

// PairRater is optionally implemented by environments that know the
// effective line rate between node pairs (the simulator derives it from the
// per-node hardware profiles). Proximity-aware policies type-assert for it;
// environments without it get plain load-based decisions. Implementations
// return the uncapped intra-node bandwidth when a == b — a local assignment
// crosses no wire.
type PairRater interface {
	PairRateKBps(a, b int) float64
}

// SetNextClient implements ClientAware for CachedDNS.
func (p *CachedDNS) SetNextClient(c int32) { p.NextClient = c }

// argminScaled returns the candidate minimizing load(n), skipping dead
// nodes; ties break on the earlier candidate. It returns -1 if no candidate
// is alive. Weighted policies pass capacity-scaled loads; unweighted ones
// pass plain loads converted to float64, which compares identically.
func argminScaled(env Env, candidates []int, load func(int) float64) int {
	best := -1
	bestLoad := math.Inf(1)
	for _, n := range candidates {
		if !env.Alive(n) {
			continue
		}
		if l := load(n); l < bestLoad {
			best, bestLoad = n, l
		}
	}
	return best
}

// argminScaled32 is argminScaled over the int32 node lists FileSets stores.
func argminScaled32(env Env, candidates []int32, load func(int) float64) int {
	best := -1
	bestLoad := math.Inf(1)
	for _, n := range candidates {
		if !env.Alive(int(n)) {
			continue
		}
		if l := load(int(n)); l < bestLoad {
			best, bestLoad = int(n), l
		}
	}
	return best
}

// Package cluster models the hardware of one cluster node as used by the
// trace-driven simulator of Section 5: a CPU, a disk, and full-duplex
// network interfaces, each a contended FCFS service center, plus the node's
// main-memory file cache and its open-connection count (the load metric of
// both L2S and LARD).
package cluster

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Node is one cluster workstation.
type Node struct {
	ID    int
	CPU   *sim.Resource
	Disk  *sim.Resource
	NIIn  *sim.Resource // receive side of the network interface
	NIOut *sim.Resource // send side of the network interface
	Cache *cache.LRU

	open     int // open connections being serviced (the load metric)
	loadHist stats.TimeWeighted
	eng      *sim.Engine
	profile  Profile

	failed   bool
	failHook func()
}

// NewNode builds a baseline node with the given cache capacity in bytes.
func NewNode(eng *sim.Engine, id int, cacheBytes int64) *Node {
	p := DefaultProfile()
	p.CacheBytes = cacheBytes
	return NewProfiledNode(eng, id, p)
}

// NewProfiledNode builds a node from a hardware profile. The profile's
// CacheBytes must be resolved (positive or zero for an empty cache) by the
// caller; speeds are normalized so the zero value means baseline.
func NewProfiledNode(eng *sim.Engine, id int, p Profile) *Node {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	n := &Node{
		ID:      id,
		CPU:     sim.NewResource(eng, fmt.Sprintf("cpu%d", id), 1),
		Disk:    sim.NewResource(eng, fmt.Sprintf("disk%d", id), 1),
		NIIn:    sim.NewResource(eng, fmt.Sprintf("ni-in%d", id), 1),
		NIOut:   sim.NewResource(eng, fmt.Sprintf("ni-out%d", id), 1),
		Cache:   cache.NewLRU(p.CacheBytes),
		eng:     eng,
		profile: p.Normalized(),
	}
	n.loadHist.Set(0, 0)
	return n
}

// Profile returns the node's normalized hardware profile.
func (n *Node) Profile() Profile { return n.profile }

// CPUTime scales a baseline CPU service time by the node's CPU speed.
// Division by the baseline speed 1 is exact, so homogeneous runs are
// bit-identical to the pre-profile simulator.
func (n *Node) CPUTime(base float64) float64 { return base / n.profile.CPUSpeed }

// DiskTime scales a baseline disk service time by the node's disk speed.
func (n *Node) DiskTime(base float64) float64 { return base / n.profile.DiskSpeed }

// LinkKBps returns the node's NI line rate, or 0 when it uses the cluster
// network's default.
func (n *Node) LinkKBps() float64 { return n.profile.LinkKBps }

// Load returns the node's current number of open connections.
func (n *Node) Load() int { return n.open }

// AddConnection registers a newly assigned connection.
func (n *Node) AddConnection() {
	n.open++
	n.loadHist.Set(float64(n.open), n.eng.Now())
}

// RemoveConnection registers a completed connection.
func (n *Node) RemoveConnection() {
	if n.open == 0 {
		panic(fmt.Sprintf("cluster: node %d closing a connection it does not have", n.ID))
	}
	n.open--
	n.loadHist.Set(float64(n.open), n.eng.Now())
}

// MeanLoad returns the time-averaged open-connection count.
func (n *Node) MeanLoad() float64 { return n.loadHist.Average(n.eng.Now()) }

// CPUIdle returns the fraction of time the CPU has been idle.
func (n *Node) CPUIdle() float64 { return 1 - n.CPU.Utilization() }

// Fail marks the node as crashed. Resources keep draining queued work (the
// simulator does not rewind history), but policies must stop selecting the
// node, and new arrivals at it are aborted.
func (n *Node) Fail() {
	if n.failed {
		return
	}
	n.failed = true
	if n.failHook != nil {
		n.failHook()
	}
}

// SetFailHook registers a callback invoked once, synchronously, when the
// node fails. The network uses it to keep its dense live-node index in step
// with Fail without rescanning the fleet per broadcast; there is a single
// slot, so the last registration wins.
func (n *Node) SetFailHook(fn func()) { n.failHook = fn }

// Failed reports whether the node has crashed.
func (n *Node) Failed() bool { return n.failed }

// ResetStats starts a fresh measurement interval on all of the node's
// resources and its cache, preserving queue and cache state. Used at the
// end of cache warm-up.
func (n *Node) ResetStats() {
	n.CPU.ResetStats()
	n.Disk.ResetStats()
	n.NIIn.ResetStats()
	n.NIOut.ResetStats()
	n.Cache.ResetStats()
	n.loadHist.Reset(n.eng.Now())
}

// Package netsim models the cluster's communication infrastructure: the
// bridge/router connecting the cluster to the Internet (4 Gbit/s) and the
// switched intra-cluster network (1 Gbit/s, 1 microsecond switch latency)
// accessed through a user-level messaging layer in the style of M-VIA.
//
// Following Section 5.1 of the paper, sending a small message costs 3
// microseconds of CPU and 6 microseconds of network interface time on each
// side, for a one-way latency of 19 microseconds on 4-byte payloads. All
// CPU and NI costs contend with request processing on the same resources.
package netsim

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config holds the communication constants.
type Config struct {
	RouterKBps    float64 // router transfer rate (Table 1: 500000 KB/s)
	LinkKBps      float64 // intra-cluster link bandwidth (128000 KB/s)
	SwitchLatency float64 // switch traversal time (1 us)
	MsgCPU        float64 // per-message CPU overhead per side (3 us)
	MsgNI         float64 // per-message NI overhead per side (6 us)
}

// flatFanout is the live-receiver count at or above which a broadcast to
// the registered fleet takes the flat path (broadcastFlat) instead of per-
// pair messages. Paper-scale clusters (N <= 32) stay on the per-pair path
// that the golden results pin; the flat path takes over where the O(N)
// event storm per broadcast would dominate the calendar.
const flatFanout = 32

// DefaultConfig returns the constants used throughout Section 5.
func DefaultConfig() Config {
	return Config{
		RouterKBps:    500000,
		LinkKBps:      128000,
		SwitchLatency: 1e-6,
		MsgCPU:        3e-6,
		MsgNI:         6e-6,
	}
}

// Network is the shared communication substrate of one simulated cluster.
type Network struct {
	cfg    Config
	eng    *sim.Engine
	Router *sim.Resource

	messages uint64 // intra-cluster messages sent

	// mMessages mirrors the message counter onto a shared observability
	// counter; nil (the default) is the disabled no-op path. Unlike the
	// built-in counter it survives ResetStats.
	mMessages *obs.Counter

	msgPool   []*message   // recycled in-flight message state
	bcastPool []*broadcast // recycled in-flight broadcast state

	flat *fleet // registered node fleet for flat broadcasts, nil otherwise
}

// fleet is the state RegisterFleet builds for flat broadcasts: dense charge
// banks over every node's receive-side resources, the ascending IDs of the
// live nodes (maintained through each node's fail hook, so counting a
// broadcast's receivers is O(1) instead of an O(N) pointer-chase scan), the
// per-node link caps needed to reproduce linkRate without touching the node
// structs, and — for uniform fleets — the gossip epoch state that collapses
// whole broadcast rounds to O(1) bookkeeping (see broadcastEpoch).
type fleet struct {
	nodes   []*cluster.Node
	niIn    *sim.ChargeBank
	cpu     *sim.ChargeBank
	liveIdx []int32   // IDs of live nodes, ascending
	rank    []int32   // position of each node ID in liveIdx, -1 once dead
	linkCap []float64 // per-node profile line rate, 0 for the default
	uniform bool      // no node overrides the link rate

	m, c sim.Time // per-message NI and CPU service (the banks' svc)

	// Gossip epoch state, maintained only for uniform fleets. A broadcast
	// whose receivers are all known idle is recorded as one epoch round —
	// round increments, the round's parameters are stored below — and each
	// node's per-round charges materialize lazily: pending rounds for node
	// i are round-base[i], folded into the charge banks in closed form when
	// the node's resources are next used (prepare) or when membership or
	// round parameters invalidate the closed form (foldAll). Nodes whose
	// resources were touched since their last individual charge sit on the
	// dirty list and are charged one by one each broadcast until they land
	// back on the closed form.
	round      uint64
	base       []uint64 // last round materialized per node; deadBase once failed
	dirty      []int32  // node IDs to charge individually next broadcast
	isDirty    []bool
	epochValid bool     // the fields below describe round `round`
	epochL     sim.Time // sender-side lastNI of the last committed round
	epochWire  float64  // shared wire time of the last committed round
	epochK     int      // receiver count of the last committed round
	epochSRank int32    // sender position in liveIdx (len(liveIdx) if dead)

	fastRounds, slowRounds uint64 // diagnostic: epoch hits vs full walks
}

// deadBase marks a failed node's base: never equal to round, never folded.
const deadBase = ^uint64(0)

// RegisterFleet declares nodes as the cluster's full node set, enabling the
// flat broadcast path (broadcastFlat) for broadcasts addressed to exactly
// this slice. Node IDs must equal their slice positions, and each node's
// resources join a charge bank, so a fleet can be registered with at most
// one network, once.
func (nw *Network) RegisterFleet(nodes []*cluster.Node) {
	if nw.flat != nil {
		panic("netsim: fleet already registered")
	}
	f := &fleet{
		nodes:   nodes,
		rank:    make([]int32, len(nodes)),
		linkCap: make([]float64, len(nodes)),
		uniform: true,
		m:       nw.cfg.MsgNI,
		c:       nw.cfg.MsgCPU,
		base:    make([]uint64, len(nodes)),
		isDirty: make([]bool, len(nodes)),
	}
	niIn := make([]*sim.Resource, len(nodes))
	cpu := make([]*sim.Resource, len(nodes))
	for i, n := range nodes {
		if n.ID != i {
			panic(fmt.Sprintf("netsim: fleet node %d has ID %d", i, n.ID))
		}
		niIn[i], cpu[i] = n.NIIn, n.CPU
		if l := n.LinkKBps(); l > 0 {
			f.linkCap[i] = l
			f.uniform = false
		}
		f.rank[i] = -1
		if !n.Failed() {
			f.rank[i] = int32(len(f.liveIdx))
			f.liveIdx = append(f.liveIdx, int32(i))
		} else {
			f.base[i] = deadBase
		}
		id := int32(i)
		n.SetFailHook(func() { f.markDead(id) })
	}
	f.niIn = sim.NewChargeBank(nw.cfg.MsgNI, niIn)
	f.cpu = sim.NewChargeBank(nw.cfg.MsgCPU, cpu)
	if f.uniform {
		// The epoch layer only runs on uniform fleets, and only then may
		// banked charges be tracked outside the banks — so only then does a
		// resource touch need the fold-and-mark hook.
		prep := f.prepare
		f.niIn.Prepare = prep
		f.cpu.Prepare = prep
		// A dirty node's prepare is a no-op (it early-outs on isDirty), and
		// request traffic touches the same node's resources many times
		// between rounds — sharing the dirty flags as the banks' Ready
		// vector lets those repeat touches skip the hook call entirely.
		f.niIn.Ready = f.isDirty
		f.cpu.Ready = f.isDirty
	}
	nw.flat = f
}

// markDead removes a node from the live index. Pending epoch rounds
// reference the old membership's ranks, so they are materialized first;
// dropping epochValid forces the next broadcast through the full walk,
// which re-derives every node's state under the new membership.
func (f *fleet) markDead(id int32) {
	f.foldAll()
	for i, v := range f.liveIdx {
		if v == id {
			f.liveIdx = append(f.liveIdx[:i], f.liveIdx[i+1:]...)
			break
		}
	}
	f.rank[id] = -1
	for p, v := range f.liveIdx {
		f.rank[v] = int32(p)
	}
	f.base[id] = deadBase
	f.epochValid = false
}

// prepare is the charge banks' Prepare hook: it runs before node i's NI or
// CPU resource is used (or its bank flushed), materializes any rounds the
// epoch layer owes the banks, and marks the node dirty — its resource state
// is about to change hands, so the next broadcast must charge it
// individually rather than assume the idle closed form.
func (f *fleet) prepare(i int32) {
	if f.isDirty[i] {
		return // already materialized and queued for individual charging
	}
	if b := f.base[i]; b != f.round {
		if b == deadBase {
			return
		}
		f.fold(i)
	}
	f.isDirty[i] = true
	f.dirty = append(f.dirty, i)
}

// fold materializes node i's pending epoch rounds into the charge banks.
// Every pending round charged the node at or after its previous chain (the
// epoch admission condition, see broadcastEpoch), so each round's finish
// times depend only on that round's parameters — the banks' chains jump
// straight to the last round's closed form, and only the charge count
// remembers the rounds in between.
func (f *fleet) fold(i int32) {
	n := f.round - f.base[i]
	f.base[i] = f.round
	p := f.rank[i]
	j := int(p)
	if p < f.epochSRank {
		j++
	}
	// Exactly broadcastFlat's per-receiver expressions, for the last round.
	depart := f.epochL - float64(f.epochK-j)*f.m
	arrive := depart + f.epochWire
	niChain := arrive + f.m
	if n != uint64(uint32(n)) {
		panic("netsim: epoch fold overflows the charge-count width")
	}
	f.niIn.FoldDeferred(int(i), niChain, uint32(n))
	f.cpu.FoldDeferred(int(i), niChain+f.c, uint32(n))
}

// foldAll materializes every live node's pending epoch rounds, leaving the
// banks self-contained — required before membership or rank changes, and
// before a broadcast that cannot extend the epoch.
func (f *fleet) foldAll() {
	for _, i := range f.liveIdx {
		if f.base[i] != f.round {
			f.fold(i)
		}
	}
}

// member reports whether n is part of the registered fleet.
func (f *fleet) member(n *cluster.Node) bool {
	return n.ID >= 0 && n.ID < len(f.nodes) && f.nodes[n.ID] == n
}

// message is the pooled state of one point-to-point Send: the five hops of
// the M-VIA path (sender CPU, sender NI, wire, receiver NI, receiver CPU)
// run as a hop counter and one pre-bound callback, so a message in steady
// state allocates nothing.
type message struct {
	nw        *Network
	from, to  *cluster.Node
	wire      float64
	delivered func()
	hops      uint8  // hops completed
	step      func() // pre-bound m.advance
}

func (nw *Network) getMessage() *message {
	if n := len(nw.msgPool); n > 0 {
		m := nw.msgPool[n-1]
		nw.msgPool = nw.msgPool[:n-1]
		return m
	}
	m := &message{nw: nw}
	m.step = m.advance
	return m
}

// advance starts the hop after the one that just completed, or delivers the
// message after the fifth.
func (m *message) advance() {
	m.hops++
	switch m.hops {
	case 1:
		m.from.NIOut.Acquire(m.nw.cfg.MsgNI, m.step)
	case 2:
		m.nw.eng.Schedule(m.wire, m.step)
	case 3:
		m.to.NIIn.Acquire(m.nw.cfg.MsgNI, m.step)
	case 4:
		m.to.CPU.Acquire(m.nw.cfg.MsgCPU, m.step)
	default:
		delivered := m.delivered
		m.from, m.to, m.delivered = nil, nil, nil
		m.nw.msgPool = append(m.nw.msgPool, m)
		if delivered != nil {
			delivered()
		}
	}
}

// broadcast is the pooled state of one Broadcast: the arrival count plus
// the caller's completion callback, with a single pre-bound arrive method
// value shared by every receiver. The per-receiver closures this replaces
// were the simulator's largest remaining allocation source.
type broadcast struct {
	nw        *Network
	remaining int
	delivered func()

	arrived func()
}

func (b *broadcast) arrive() {
	b.remaining--
	if b.remaining == 0 {
		delivered := b.delivered
		b.delivered = nil
		b.nw.bcastPool = append(b.nw.bcastPool, b)
		if delivered != nil {
			delivered()
		}
	}
}

func (nw *Network) getBroadcast() *broadcast {
	if n := len(nw.bcastPool); n > 0 {
		b := nw.bcastPool[n-1]
		nw.bcastPool = nw.bcastPool[:n-1]
		return b
	}
	b := &broadcast{nw: nw}
	b.arrived = b.arrive
	return b
}

// New builds the network. The router is a single shared service center.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.RouterKBps <= 0 || cfg.LinkKBps <= 0 {
		panic(fmt.Sprintf("netsim: rates must be positive: %+v", cfg))
	}
	return &Network{cfg: cfg, eng: eng, Router: sim.NewResource(eng, "router", 1)}
}

// Config returns the communication constants in use.
func (nw *Network) Config() Config { return nw.cfg }

// Messages returns the number of intra-cluster messages sent so far.
func (nw *Network) Messages() uint64 { return nw.messages }

// SetMetrics attaches an observability counter that mirrors the message
// count (nil detaches it).
func (nw *Network) SetMetrics(messages *obs.Counter) { nw.mMessages = messages }

// linkRate returns the serialization rate of a transfer between two nodes:
// the configured link bandwidth, capped by either endpoint's NI line rate
// when a node profile sets one (a transfer is no faster than its slowest
// endpoint). With default profiles this is exactly cfg.LinkKBps, so
// homogeneous runs are unchanged.
func (nw *Network) linkRate(from, to *cluster.Node) float64 {
	rate := nw.cfg.LinkKBps
	if l := from.LinkKBps(); l > 0 && l < rate {
		rate = l
	}
	if l := to.LinkKBps(); l > 0 && l < rate {
		rate = l
	}
	return rate
}

// LinkRate exposes the effective per-pair serialization rate in KB/s for
// proximity-aware dispatch policies; see linkRate.
func (nw *Network) LinkRate(from, to *cluster.Node) float64 {
	return nw.linkRate(from, to)
}

// WireTime returns the wire latency of moving kb kilobytes between two
// nodes: switch traversal plus serialization at the endpoints' effective
// link rate. Bulk-data paths (distributed-file-system reads, back-end
// forwarding) use this so per-node link speeds apply to them too.
func (nw *Network) WireTime(from, to *cluster.Node, kb float64) float64 {
	return nw.cfg.SwitchLatency + kb/nw.linkRate(from, to)
}

// RouterIn charges the router for an inbound transfer of kb kilobytes and
// calls done when it has passed through.
func (nw *Network) RouterIn(kb float64, done func()) {
	nw.Router.Acquire(kb/nw.cfg.RouterKBps, done)
}

// RouterOut charges the router for an outbound transfer of kb kilobytes.
func (nw *Network) RouterOut(kb float64, done func()) {
	nw.Router.Acquire(kb/nw.cfg.RouterKBps, done)
}

// Send transmits a kb-kilobyte message from one node to another over the
// switched network, charging CPU and NI overheads on both sides plus
// serialization and switch latency, and calls delivered at the receiver
// once the receiving CPU has processed the message.
func (nw *Network) Send(from, to *cluster.Node, kb float64, delivered func()) {
	if from == to {
		panic(fmt.Sprintf("netsim: node %d sending a message to itself", from.ID))
	}
	nw.messages++
	nw.mMessages.Inc()
	m := nw.getMessage()
	m.from, m.to = from, to
	m.wire = nw.WireTime(from, to, kb)
	m.delivered = delivered
	m.hops = 0
	from.CPU.Acquire(nw.cfg.MsgCPU, m.step)
}

// Broadcast sends the message from one node to every other live node
// (implemented, as in the paper's M-VIA setup, as multiple point-to-point
// messages) and calls delivered once, when the last copy has arrived.
//
// A broadcast to the registered fleet with at least flatFanout live
// receivers takes the flat path: every per-message resource charge is
// computed arithmetically and at most one completion event is scheduled,
// instead of the five events per message the per-pair path costs. See
// broadcastFlat for the exactness argument. Every other broadcast sends
// per-pair messages.
//
// Broadcast returns the number of point-to-point messages sent (the live
// receiver count), so callers can account gossip traffic exactly.
func (nw *Network) Broadcast(from *cluster.Node, others []*cluster.Node, kb float64, delivered func()) int {
	var remaining int
	flat := false
	if f := nw.flat; f != nil && len(others) == len(f.nodes) &&
		(len(others) == 0 || others[0] == f.nodes[0]) && f.member(from) {
		// Fleet broadcast: the live count is maintained incrementally.
		remaining = len(f.liveIdx)
		if !from.Failed() {
			remaining-- // the sender is in the live index but receives nothing
		}
		flat = true
	} else {
		for _, n := range others {
			if n != from && !n.Failed() {
				remaining++
			}
		}
	}
	if remaining == 0 {
		if delivered != nil {
			// Deliver asynchronously for consistency with the network path.
			nw.eng.Schedule(0, delivered)
		}
		return 0
	}
	if flat && remaining >= flatFanout {
		nw.broadcastFlat(from, remaining, kb, delivered)
		return remaining
	}
	b := nw.getBroadcast()
	b.remaining = remaining
	b.delivered = delivered
	for _, n := range others {
		if n == from || n.Failed() {
			continue
		}
		nw.Send(from, n, kb, b.arrived)
	}
	return remaining
}

// broadcastFlat books a k-receiver broadcast to the registered fleet with
// O(k) arithmetic and at most one calendar event, against the 5k events the
// per-pair path costs, each sifting a calendar that path keeps 5k entries
// deep.
//
// All k copies are submitted at the same instant, so the sender-side charges
// are exactly what k sequential Sends would book: k CPU overheads queue FCFS
// on the sender CPU (one ChargeAt of k*MsgCPU has identical free/busy
// evolution), and because MsgNI >= MsgCPU the sender NI never goes idle
// between copies — the j-th copy leaves the NI at lastNI-(k-j)*MsgNI, the
// same staggered departure times the per-pair path produces. Each copy then
// crosses the wire at the pair's own rate (per-node line profiles preserved)
// and charges the receiver's NI and CPU from its arrival instant.
//
// These timings diverge from per-pair scheduling only when competing
// traffic would have interleaved with the broadcast's own charges at the
// same resource between now and the last departure: charging up front gives
// the broadcast FCFS priority over work submitted later at the same instant
// sequence. Queue-length statistics (InSystem, Completed, mean jobs) do not
// see arithmetic charges; utilization and busy time stay exact.
//
// The receiver charges go through the fleet's charge banks (sim.ChargeBank),
// deferred arithmetic bit-identical to charging each resource directly, and
// on uniform fleets through the epoch layer (broadcastEpoch), which books
// the common case — every receiver idle — as a single O(1) round instead of
// an O(N) walk.
func (nw *Network) broadcastFlat(from *cluster.Node, k int, kb float64, delivered func()) {
	nw.messages += uint64(k)
	nw.mMessages.Add(uint64(k))

	c, m := nw.cfg.MsgCPU, nw.cfg.MsgNI
	now := nw.eng.Now()
	// Charging the sender's CPU fires the prepare hook, so by the time the
	// receiver logic runs the sender has been folded and marked dirty —
	// which is exactly right: its CPU chain diverges from the receiver
	// closed form here, so the next broadcast must charge it individually.
	lastCPU := from.CPU.ChargeAt(now, float64(k)*c)
	firstCPU := lastCPU - float64(k-1)*c
	lastNI := from.NIOut.ChargeAt(firstCPU, float64(k)*m)

	f := nw.flat
	fromID := int32(from.ID)
	// The sender-side link cap applies to every pair, as in linkRate.
	senderRate := nw.cfg.LinkKBps
	if l := f.linkCap[fromID]; l > 0 && l < senderRate {
		senderRate = l
	}
	var maxDone sim.Time
	if f.uniform {
		// Homogeneous line rates: the wire time is one shared constant,
		// computed exactly as WireTime would per receiver.
		wire := nw.cfg.SwitchLatency + kb/senderRate
		maxDone = f.broadcastEpoch(fromID, k, lastNI, wire, m, c)
	} else {
		j := 0
		for _, i := range f.liveIdx {
			if i == fromID {
				continue
			}
			j++
			rate := senderRate
			if l := f.linkCap[i]; l > 0 && l < rate {
				rate = l
			}
			wire := nw.cfg.SwitchLatency + kb/rate
			depart := lastNI - float64(k-j)*m
			arrive := depart + wire
			done := f.cpu.ChargeAt(int(i), f.niIn.ChargeAt(int(i), arrive))
			if done > maxDone {
				maxDone = done
			}
		}
	}
	if delivered != nil {
		nw.eng.At(maxDone, delivered)
	}
}

// broadcastEpoch books one uniform-fleet broadcast round and returns the
// last delivery time. The j-th receiver in ascending live order gets NI and
// CPU charges arriving at arrive(j) = (lastNI - (k-j)*m) + wire; when the
// receiver is idle — its NI chain is at or before arrive(j) — the charges
// finish at arrive(j)+m and (arrive(j)+m)+c, independent of all history. So
// a round whose receivers are all known idle needs no per-node work at all:
// round increments, this round's parameters are stored, and per-node
// charges materialize lazily in fold.
//
// Idleness is guaranteed by one scalar test. A receiver's NI chain from the
// previous round is arrive'(j')+m; between consecutive rounds a node's
// (k-j) slot shifts by at most one (the sender moves, or a sender was dead
// on one side), so across every receiver
//
//	arrive(j) - chain' >= (lastNI-L') + (wire-w') - 2m.
//
// Requiring that gap to exceed 2m (plus m/2 of slack, orders of magnitude
// above any accumulated float rounding but well below real inter-round
// spacing) therefore proves every non-dirty receiver idle — for the CPU
// chain too, since MsgCPU <= MsgNI. Measured on the 1024-node scale grid,
// inter-round gaps clear this bound on every round of the run.
//
// Nodes the guarantee cannot cover — anything whose NI or CPU was used
// since its last individual charge (request traffic, stat reads or resets,
// sending a broadcast) — sit on the dirty list: folded on first touch by
// prepare, then charged individually here each round, rejoining the epoch
// the moment both charges land exactly on the idle closed form (equality
// also holds on the chain==arrive boundary, where the max picks the same
// value by either branch). When the scalar test fails, or membership
// changed, the whole round is charged individually instead — the dirty
// list re-forms from the nodes that missed the closed form, so one walk
// re-arms the epoch.
func (f *fleet) broadcastEpoch(fromID int32, k int, lastNI sim.Time, wire float64, m, c sim.Time) sim.Time {
	senderRank := int32(len(f.liveIdx))
	if p := f.rank[fromID]; p >= 0 {
		senderRank = p
	}
	newRound := f.round + 1
	var maxDone sim.Time
	if f.epochValid && (lastNI-f.epochL)+(wire-f.epochWire) > 2*m+m/2 {
		f.fastRounds++
		keep := f.dirty[:0]
		for _, i := range f.dirty {
			p := f.rank[i]
			if p < 0 {
				continue // failed since: drop, never charged again
			}
			f.base[i] = newRound
			if i == fromID {
				// The sender receives nothing and its CPU chain now ends at
				// its own send charges, off the receiver closed form: it
				// stays on the dirty list for the next broadcast.
				keep = append(keep, i)
				continue
			}
			j := int(p)
			if p < senderRank {
				j++
			}
			depart := lastNI - float64(k-j)*m
			arrive := depart + wire
			niDone := f.niIn.ChargeAt(int(i), arrive)
			done := f.cpu.ChargeAt(int(i), niDone)
			if done > maxDone {
				maxDone = done
			}
			if niDone == arrive+m && done == niDone+c {
				f.isDirty[i] = false // back on the closed form: rejoin
			} else {
				keep = append(keep, i)
			}
		}
		f.dirty = keep
		// Every other receiver advances implicitly with the round. Their
		// finish times grow with j, so only the largest-rank epoch member
		// can carry the round's delivery time.
		for p := len(f.liveIdx) - 1; p >= 0; p-- {
			i := f.liveIdx[p]
			if i == fromID || f.isDirty[i] {
				continue
			}
			j := p
			if int32(p) < senderRank {
				j++
			}
			depart := lastNI - float64(k-j)*m
			arrive := depart + wire
			done := (arrive + m) + c
			if done > maxDone {
				maxDone = done
			}
			break
		}
	} else {
		f.slowRounds++
		f.foldAll()
		f.dirty = f.dirty[:0]
		j := 0
		for _, i := range f.liveIdx {
			if i == fromID {
				f.base[i] = newRound
				f.isDirty[i] = true
				f.dirty = append(f.dirty, i)
				continue
			}
			j++
			depart := lastNI - float64(k-j)*m
			arrive := depart + wire
			niDone := f.niIn.ChargeAt(int(i), arrive)
			done := f.cpu.ChargeAt(int(i), niDone)
			if done > maxDone {
				maxDone = done
			}
			f.base[i] = newRound
			if niDone == arrive+m && done == niDone+c {
				f.isDirty[i] = false
			} else {
				f.isDirty[i] = true
				f.dirty = append(f.dirty, i)
			}
		}
		f.epochValid = true
	}
	f.round = newRound
	f.epochL = lastNI
	f.epochWire = wire
	f.epochK = k
	f.epochSRank = senderRank
	return maxDone
}

// ResetStats zeroes message counters (router statistics are reset through
// the resource itself).
func (nw *Network) ResetStats() {
	nw.messages = 0
	nw.Router.ResetStats()
}

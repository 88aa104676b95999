package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// buildFleet returns an engine, a network, and a registered fleet of n
// nodes, slowNode (if in range) on a 128x slower link.
func buildFleet(n int, slowNode int) (*sim.Engine, *Network, []*cluster.Node) {
	eng := sim.NewEngine()
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		p := cluster.DefaultProfile()
		if i == slowNode {
			p.LinkKBps = 1000
		}
		nodes[i] = cluster.NewProfiledNode(eng, i, p)
	}
	return eng, newNetwork(eng, nodes, true), nodes
}

// stormScript drives an overlapping broadcast storm with mid-run failures
// and statistics reads, the access pattern that exercises every deferred-
// charge flush path, and returns the delivered times.
func stormScript(eng *sim.Engine, nw *Network, nodes []*cluster.Node) []float64 {
	var deliveredAt []float64
	for i := 0; i < 16; i++ {
		s := nodes[(i*7)%len(nodes)]
		eng.At(float64(i)*2e-6, func() {
			nw.Broadcast(s, nodes, 0.004, func() { deliveredAt = append(deliveredAt, eng.Now()) })
		})
	}
	eng.At(9e-6, func() { nodes[3].Fail() })
	eng.At(1.1e-5, func() { _ = nodes[5].CPU.BusyTime() }) // mid-storm flush
	eng.At(1.3e-5, func() { nodes[5].ResetStats() })
	eng.Run()
	return deliveredAt
}

// runDigest hashes everything a run observably produced, bit for bit: the
// delivered times, the event and message counts, and every node's CPU,
// NI-out and NI-in busy time.
func runDigest(eng *sim.Engine, nw *Network, nodes []*cluster.Node, deliveredAt []float64) string {
	h := fnv.New64a()
	put := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	for _, at := range deliveredAt {
		put(math.Float64bits(at))
	}
	put(eng.Fired())
	put(nw.Messages())
	for _, n := range nodes {
		for _, r := range []*sim.Resource{n.CPU, n.NIOut, n.NIIn} {
			put(math.Float64bits(r.BusyTime()))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBroadcastFlatStorm pins the flat path under contention: an
// overlapping broadcast storm — including a mid-storm failure, a
// heterogeneous link rate, and interleaved statistics reads and resets —
// must reproduce, bit for bit, digests generated while the flat path was
// still checked against an independent batched walk that charged every
// resource directly. At n=33 the failure drops the fan-out below
// flatFanout, so the storm also crosses from the flat to the per-pair path
// with charges still deferred in the banks.
func TestBroadcastFlatStorm(t *testing.T) {
	// The slow link never decides a delivery time here (its extra 4 us of
	// wire time hides behind the later receivers' staggered departures),
	// so both link profiles share a digest; the slow one still takes the
	// per-receiver walk instead of epoch rounds.
	want := map[int]string{
		33:  "993f94672e2b5d88",
		64:  "31053ff90bfdd101",
		200: "45ff7a7f2462e492",
	}
	for _, n := range []int{33, 64, 200} {
		for _, slow := range []int{-1, 17} {
			eng, nw, nodes := buildFleet(n, slow)
			at := stormScript(eng, nw, nodes)
			if len(at) != 16 {
				t.Fatalf("n=%d slow=%d: %d deliveries, want 16", n, slow, len(at))
			}
			if got := runDigest(eng, nw, nodes, at); got != want[n] {
				t.Errorf("n=%d slow=%d: storm digest %s, want %s", n, slow, got, want[n])
			}
		}
	}
}

// TestBroadcastFlatSpacedStormTakesFastPath pins the epoch fast path: when
// rounds are spaced beyond the admission threshold (the sender's NI
// advancing more than 2.5 message times per round), the fleet records whole
// rounds in O(1) — fastRounds must be nonzero even with request-like
// resource traffic and statistics reads dirtying individual nodes — and the
// results reproduce a digest generated while the flat path was still
// checked against the batched walk.
func TestBroadcastFlatSpacedStormTakesFastPath(t *testing.T) {
	eng, nw, nodes := buildFleet(64, -1)
	var deliveredAt []float64
	for i := 0; i < 12; i++ {
		s := nodes[(i*7)%len(nodes)]
		eng.At(float64(i)*5e-5, func() {
			nw.Broadcast(s, nodes, 0.004, func() { deliveredAt = append(deliveredAt, eng.Now()) })
		})
	}
	// Request-like traffic against individual nodes mid-storm: these dirty
	// the touched nodes but must not evict the rest of the fleet from the
	// epoch.
	eng.At(1.2e-4, func() { nodes[11].CPU.Acquire(2e-6, nil) })
	eng.At(2.3e-4, func() { _ = nodes[5].CPU.BusyTime() })
	eng.At(3.1e-4, func() { nodes[9].ResetStats() })
	eng.Run()

	if got, want := runDigest(eng, nw, nodes, deliveredAt), "c773ae4748a0f92d"; got != want {
		t.Errorf("spaced storm digest %s, want %s", got, want)
	}
	if nw.flat.fastRounds == 0 {
		t.Fatalf("fastRounds = 0 (slowRounds = %d): spaced storm never took the epoch fast path",
			nw.flat.slowRounds)
	}
}

// TestBroadcastFlatBelowFanoutUsesPerPair pins that a registered fleet only
// changes how receivers are counted below flatFanout: the per-pair event
// path still runs, bit-identical to the unregistered network.
func TestBroadcastFlatBelowFanoutUsesPerPair(t *testing.T) {
	run := func(flat bool) (uint64, float64) {
		eng := sim.NewEngine()
		nodes := makeCluster(eng, 8) // fan-out 7 < flatFanout
		nw := newNetwork(eng, nodes, flat)
		deliveredAt := -1.0
		nw.Broadcast(nodes[0], nodes, 0.004, func() { deliveredAt = eng.Now() })
		eng.Run()
		return eng.Fired(), deliveredAt
	}
	eventsB, atB := run(false)
	eventsF, atF := run(true)
	if eventsB != eventsF || atB != atF {
		t.Fatalf("per-pair: unregistered %d events at %v, registered %d events at %v", eventsB, atB, eventsF, atF)
	}
	if eventsF != 5*7 {
		t.Fatalf("events = %d, want %d (per-pair path)", eventsF, 5*7)
	}
}

// TestBroadcastFlatSubsetFallsBack pins that a broadcast addressed to a
// slice that is not the registered fleet — a subset, or a sender outside it
// — falls back to the per-pair path and stays correct.
func TestBroadcastFlatSubsetFallsBack(t *testing.T) {
	eng, nw, nodes := buildFleet(64, -1)
	delivered := 0
	if got := nw.Broadcast(nodes[0], nodes[:40], 0.004, func() { delivered++ }); got != 39 {
		t.Fatalf("subset broadcast returned %d receivers, want 39", got)
	}
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	if nw.Messages() != 39 {
		t.Fatalf("Messages = %d, want 39", nw.Messages())
	}
}

// TestBroadcastFlatFailedSender pins the dead-sender edge: a failed sender
// still in the fleet broadcasts to every live node, exactly like the
// scanning count.
func TestBroadcastFlatFailedSender(t *testing.T) {
	eng, nw, nodes := buildFleet(64, -1)
	nodes[0].Fail()
	nodes[9].Fail()
	if got := nw.Broadcast(nodes[0], nodes, 0.004, nil); got != 62 {
		t.Fatalf("failed-sender broadcast returned %d receivers, want 62", got)
	}
	eng.Run()
	if nodes[9].NIIn.BusyTime() != 0 {
		t.Fatal("failed receiver was charged")
	}
}

// TestRegisterFleetRejectsMisnumberedNodes pins the registration contract:
// node IDs must equal slice positions, and a second registration panics.
func TestRegisterFleetRejectsMisnumberedNodes(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng, DefaultConfig())
	nodes := makeCluster(eng, 4)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("misnumbered", func() {
		nw.RegisterFleet([]*cluster.Node{nodes[1], nodes[0], nodes[2], nodes[3]})
	})
	nw2 := New(eng, DefaultConfig())
	nodes2 := makeCluster(eng, 4)
	nw2.RegisterFleet(nodes2)
	expectPanic("double registration", func() { nw2.RegisterFleet(nodes2) })
}

package netsim

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// newNetwork returns a default network over nodes, with nodes registered as
// its fleet when flat is true. Broadcasts to a registered fleet with at
// least flatFanout receivers take the flat path; an unregistered network
// sends every broadcast as per-pair messages, the paper's model and the
// reference the flat path is checked against.
func newNetwork(eng *sim.Engine, nodes []*cluster.Node, flat bool) *Network {
	nw := New(eng, DefaultConfig())
	if flat {
		nw.RegisterFleet(nodes)
	}
	return nw
}

// runBroadcast drives one quiet-network broadcast from node 0 to n nodes
// and returns the network, nodes, and the delivered time.
func runBroadcast(t *testing.T, flat bool, n int, kb float64) (*Network, []*cluster.Node, float64) {
	t.Helper()
	eng := sim.NewEngine()
	nodes := makeCluster(eng, n)
	nw := newNetwork(eng, nodes, flat)
	deliveredAt := -1.0
	nw.Broadcast(nodes[0], nodes, kb, func() { deliveredAt = eng.Now() })
	eng.Run()
	if deliveredAt < 0 {
		t.Fatal("broadcast never delivered")
	}
	return nw, nodes, deliveredAt
}

// TestBroadcastFlatMatchesPerPair pins the exactness claim: on a quiet
// network, the flat fan-out books the same delivered time, message count,
// and per-resource busy time as the per-pair event path.
func TestBroadcastFlatMatchesPerPair(t *testing.T) {
	for _, n := range []int{33, 64, 200} {
		for _, kb := range []float64{0.004, 1.5} {
			nwP, nodesP, atP := runBroadcast(t, false, n, kb)
			nwF, nodesF, atF := runBroadcast(t, true, n, kb)
			if math.Abs(atP-atF) > 1e-12 {
				t.Fatalf("n=%d kb=%v: delivered per-pair %v, flat %v", n, kb, atP, atF)
			}
			if nwP.Messages() != nwF.Messages() || nwP.Messages() != uint64(n-1) {
				t.Fatalf("n=%d: messages per-pair %d, flat %d, want %d",
					n, nwP.Messages(), nwF.Messages(), n-1)
			}
			for i := range nodesP {
				for _, pair := range [][2]*sim.Resource{
					{nodesP[i].CPU, nodesF[i].CPU},
					{nodesP[i].NIOut, nodesF[i].NIOut},
					{nodesP[i].NIIn, nodesF[i].NIIn},
				} {
					if math.Abs(pair[0].BusyTime()-pair[1].BusyTime()) > 1e-12 {
						t.Fatalf("n=%d node %d %s: busy per-pair %v, flat %v",
							n, i, pair[0].Name(), pair[0].BusyTime(), pair[1].BusyTime())
					}
				}
			}
		}
	}
}

// TestBroadcastFlatHonorsNodeLinkRates pins that the flat path charges
// per-endpoint wire time: a receiver with a slow NI line rate delays the
// whole broadcast exactly as it does on the per-pair path.
func TestBroadcastFlatHonorsNodeLinkRates(t *testing.T) {
	build := func(flat bool) (float64, float64) {
		eng := sim.NewEngine()
		nodes := make([]*cluster.Node, 40)
		for i := range nodes {
			p := cluster.DefaultProfile()
			if i == 17 {
				p.LinkKBps = 1000 // 128x slower than the cluster link
			}
			nodes[i] = cluster.NewProfiledNode(eng, i, p)
		}
		nw := newNetwork(eng, nodes, flat)
		deliveredAt := -1.0
		nw.Broadcast(nodes[0], nodes, 2.0, func() { deliveredAt = eng.Now() })
		eng.Run()
		return deliveredAt, nodes[17].NIIn.BusyTime()
	}
	atP, slowBusyP := build(false)
	atF, slowBusyF := build(true)
	if math.Abs(atP-atF) > 1e-12 {
		t.Fatalf("delivered per-pair %v, flat %v", atP, atF)
	}
	if math.Abs(slowBusyP-slowBusyF) > 1e-12 {
		t.Fatalf("slow-node NI busy per-pair %v, flat %v", slowBusyP, slowBusyF)
	}
	// The slow link must actually dominate: 2 KB at 1000 KB/s is 2 ms.
	if atF < 2e-3 {
		t.Fatalf("delivered %v, want >= 2ms (slow receiver's serialization)", atF)
	}
}

// TestBroadcastFlatSkipsFailedNodes pins that dead receivers cost nothing:
// no messages, no resource charges.
func TestBroadcastFlatSkipsFailedNodes(t *testing.T) {
	eng := sim.NewEngine()
	nodes := makeCluster(eng, 50)
	nw := newNetwork(eng, nodes, true)
	for i := 10; i < 20; i++ {
		nodes[i].Fail()
	}
	delivered := 0
	nw.Broadcast(nodes[0], nodes, 0.004, func() { delivered++ })
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	if nw.Messages() != 39 {
		t.Fatalf("Messages = %d, want 39 (49 others minus 10 failed)", nw.Messages())
	}
	for i := 10; i < 20; i++ {
		if nodes[i].NIIn.BusyTime() != 0 || nodes[i].CPU.BusyTime() != 0 {
			t.Fatalf("failed node %d was charged", i)
		}
	}
}

// TestBroadcastFlatDeliveredOrdering pins callback ordering across
// overlapping broadcasts: completions fire in simulated-time order, and each
// delivered callback runs after every receiver-side charge of its own
// broadcast is booked (the delivered time equals the latest receiver CPU
// finish).
func TestBroadcastFlatDeliveredOrdering(t *testing.T) {
	eng := sim.NewEngine()
	nodes := makeCluster(eng, 65)
	nw := newNetwork(eng, nodes, true)
	var order []int
	// Three broadcasts with distinct start times and fan-outs. Later start
	// plus smaller fan-out finishes before an earlier giant fan-out would
	// if ordering were FIFO by submission.
	eng.At(0, func() { nw.Broadcast(nodes[0], nodes, 0.5, func() { order = append(order, 0) }) })
	eng.At(1e-6, func() { nw.Broadcast(nodes[1], nodes[:3], 0.004, func() { order = append(order, 1) }) })
	eng.At(2e-6, func() { nw.Broadcast(nodes[2], nodes[:5], 0.004, func() { order = append(order, 2) }) })
	eng.Run()
	want := []int{1, 2, 0}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestBroadcastFlatEventEconomy pins the point of the flat path: a flat
// broadcast adds at most one calendar event (zero with a nil delivered
// callback), where the per-pair path fires five per receiver.
func TestBroadcastFlatEventEconomy(t *testing.T) {
	for _, tc := range []struct {
		flat      bool
		delivered func()
		want      uint64
	}{
		{true, nil, 0},
		{true, func() {}, 1},
		{false, func() {}, 5 * 1023},
	} {
		eng := sim.NewEngine()
		nodes := makeCluster(eng, 1024)
		nw := newNetwork(eng, nodes, tc.flat)
		nw.Broadcast(nodes[0], nodes, 0.004, tc.delivered)
		eng.Run()
		if eng.Fired() != tc.want {
			t.Fatalf("flat=%v delivered=%v: broadcast fired %d events, want %d",
				tc.flat, tc.delivered != nil, eng.Fired(), tc.want)
		}
		if nw.Messages() != 1023 {
			t.Fatalf("flat=%v: Messages = %d, want 1023", tc.flat, nw.Messages())
		}
	}
}

// TestBroadcastStorm1024 runs a broadcast storm at full target scale — every
// 16th node of a 1024-node cluster broadcasting to the whole cluster in
// overlapping waves — and checks conservation: every broadcast delivers
// exactly once and the message count is exact. `make race` runs this under
// the race detector.
func TestBroadcastStorm1024(t *testing.T) {
	const n = 1024
	const senders = 64
	eng := sim.NewEngine()
	nodes := makeCluster(eng, n)
	nw := newNetwork(eng, nodes, true)
	delivered := 0
	for i := 0; i < senders; i++ {
		s := nodes[i*16]
		eng.At(float64(i)*1e-7, func() {
			nw.Broadcast(s, nodes, 0.004, func() { delivered++ })
		})
	}
	eng.Run()
	if delivered != senders {
		t.Fatalf("delivered %d broadcasts, want %d", delivered, senders)
	}
	if want := uint64(senders * (n - 1)); nw.Messages() != want {
		t.Fatalf("Messages = %d, want %d", nw.Messages(), want)
	}
	// Sender 0's CPU paid MsgCPU per copy of its own fan-out plus MsgCPU
	// for each of the other senders' copies it received.
	wantBusy := float64(n-1)*3e-6 + float64(senders-1)*3e-6
	if got := nodes[0].CPU.BusyTime(); math.Abs(got-wantBusy) > 1e-9 {
		t.Fatalf("sender 0 CPU busy = %v, want %v", got, wantBusy)
	}
}

package server

import (
	"math"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/cluster"
)

// Persistent-connection (HTTP/1.1) support. Section 4 of the paper notes
// that L2S and LARD handle persistent connections "by slightly modifying
// the algorithms" along the lines of Aron et al.: a connection stays bound
// to the node that accepted its first request (the owner), and requests
// whose content is cached elsewhere are served by back-end forwarding —
// the caching node reads the file and ships it across the cluster network
// to the owner, which transmits it to the client. The client-facing
// connection never moves, so hand-off happens once per connection at most,
// while content locality is preserved per request at the cost of an
// internal data transfer.

// geometricLength draws a connection length with the given mean (at least
// 1 request).
func geometricLength(rng *rand.Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	u := rng.Float64()
	k := 1 + int(math.Floor(math.Log(1-u)/math.Log(1-p)))
	if k < 1 {
		k = 1
	}
	return k
}

// injectConnection starts the next connection: a geometric run of
// consecutive trace requests riding one client connection.
func (d *driver) injectConnection() {
	count := geometricLength(d.connRNG, d.cfg.ReqsPerConn)
	if rest := d.tr.NumRequests() - d.next; count > rest {
		count = rest
	}
	first := d.next
	d.next += count
	d.inflight++
	d.startConnection(first, count)
}

// startConnection establishes the connection at its initial node, binds it
// to an owner via the first request's distribution decision, then serves
// the requests in order.
func (d *driver) startConnection(first, count int) {
	f0 := d.tr.Requests[first]
	if d.clientAware != nil {
		d.clientAware.SetNextClient(d.tr.Client(first))
	}
	n0 := d.dist.Initial(f0)

	d.net.RouterIn(d.cfg.Costs.ReqKB, func() {
		node0 := d.nodes[n0]
		if node0.Failed() {
			d.abortUnassigned()
			return
		}
		node0.NIIn.Acquire(d.niIn, func() {
			cpuCost := d.parse
			if n0 == d.dist.FrontEnd() {
				cpuCost = d.cfg.FECostSec
			}
			node0.CPU.Acquire(node0.CPUTime(cpuCost), func() {
				owner := d.dist.Service(n0, f0)
				d.nodes[owner].AddConnection()
				d.dist.OnAssign(owner)
				if owner == n0 {
					d.serveConnRequest(owner, first, count, 0, true)
					return
				}
				// Hand the whole connection off once.
				fwdCost := d.fwd
				if n0 == d.dist.FrontEnd() {
					fwdCost = 0
				}
				node0.CPU.Acquire(node0.CPUTime(fwdCost), func() {
					d.net.Send(node0, d.nodes[owner], d.cfg.Costs.ReqKB, func() {
						d.serveConnRequest(owner, first, count, 0, true)
					})
				})
			})
		})
	})
}

// serveConnRequest serves request number i of the connection at the owner
// node, then recurses to the next request or closes the connection.
// handedOff marks whether the connection itself was handed off (counted
// once as a forward).
func (d *driver) serveConnRequest(owner, first, count, i int, firstCall bool) {
	if i >= count {
		d.closeConnection(owner, first, count)
		return
	}
	idx := first + i
	f := d.tr.Requests[idx]
	node := d.nodes[owner]
	if node.Failed() {
		d.abortAssigned(owner, f)
		return
	}
	skb := float64(d.tr.Size(f)) / 1024
	t0 := d.eng.Now()
	d.assigned++
	d.m.assigned.Inc()

	next := func() {
		d.completed++
		d.m.completed.Inc()
		d.lastDone = d.eng.Now()
		if d.measuring {
			d.latency.Add(d.eng.Now() - t0)
			d.m.latency.Observe(d.eng.Now() - t0)
			d.recordTimeline()
		}
		d.serveConnRequest(owner, first, count, i+1, false)
	}

	// Each request arrives from the client over the persistent connection
	// and is parsed at the owner. The first request was already parsed
	// during establishment.
	arrive := func(then func()) {
		if firstCall && i == 0 {
			then()
			return
		}
		d.net.RouterIn(d.cfg.Costs.ReqKB, func() {
			node.NIIn.Acquire(d.niIn, func() {
				node.CPU.Acquire(node.CPUTime(d.parse), then)
			})
		})
	}

	arrive(func() {
		svc := d.dist.Service(owner, f)
		if svc == owner || !d.Alive(svc) {
			d.serveLocallyOnConn(node, f, skb, next)
			return
		}
		// Back-end forwarding: the caching node reads the file and ships
		// it to the owner, which transmits it to the client.
		d.forwarded++
		d.m.forwarded.Inc()
		node.CPU.Acquire(node.CPUTime(d.fwd), func() {
			d.net.Send(node, d.nodes[svc], d.cfg.Costs.ReqKB, func() {
				d.remoteRead(svc, f, skb, func() {
					// Data crosses the cluster network: sender NI-out and
					// wire time scale with the file, receiver pays NI-in.
					remote := d.nodes[svc]
					remote.NIOut.Acquire(d.niOut(svc, skb), func() {
						wire := d.net.WireTime(remote, node, skb)
						d.eng.Schedule(wire, func() {
							node.NIIn.Acquire(d.niOut(owner, skb), func() {
								d.transmit(node, skb, func() {
									node.NIOut.Acquire(d.niOut(owner, skb), func() {
										d.net.RouterOut(skb, next)
									})
								})
							})
						})
					})
				})
			})
		})
	})
}

// serveLocallyOnConn is the local service path of a persistent-connection
// request: cache, disk on miss, transmit, NI out, router out.
func (d *driver) serveLocallyOnConn(node *cluster.Node, f cache.FileID, skb float64, next func()) {
	hit := node.Cache.Access(f, d.tr.Size(f))
	finish := func() {
		d.transmit(node, skb, func() {
			node.NIOut.Acquire(d.niOut(node.ID, skb), func() {
				d.net.RouterOut(skb, next)
			})
		})
	}
	if hit {
		finish()
	} else {
		d.fetch(node.ID, f, skb, finish)
	}
}

// remoteRead fetches the file into the remote node's cache (disk on miss)
// and charges a small CPU cost for the read-and-ship work.
func (d *driver) remoteRead(svc int, f cache.FileID, skb float64, done func()) {
	remote := d.nodes[svc]
	hit := remote.Cache.Access(f, d.tr.Size(f))
	then := func() {
		remote.CPU.Acquire(d.cfg.Net.MsgCPU, done)
	}
	if hit {
		then()
	} else {
		d.fetch(svc, f, skb, then)
	}
}

func (d *driver) closeConnection(owner, first, count int) {
	d.nodes[owner].RemoveConnection()
	d.dist.OnComplete(owner, d.tr.Requests[first])
	d.inflight--
	d.connections++
	d.connReqs += uint64(count)
	if !d.openLoop {
		d.inject()
	}
}

package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/native"
	"repro/internal/trace"
)

// callers is the closed loop's client count: each waits for its reply
// before sending the next request, over its own keep-alive connections.
const callers = 2

// reply is what a caller saw for one request.
type reply struct {
	start  time.Time
	took   time.Duration
	served int8 // X-Served-By, -1 when absent
	caller int8
	ok     bool
}

// closedLoop sends requests [first, first+count) of the trace from the
// callers, entering at node (request index mod cluster size). A request
// fails on a transport error, a non-200 status, or a body whose length
// differs from the trace's file size.
func closedLoop(urls []string, tr *trace.Trace, first, count int) []reply {
	replies := make([]reply, count)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			transport := &http.Transport{MaxIdleConnsPerHost: 1}
			defer transport.CloseIdleConnections()
			client := &http.Client{Transport: transport, Timeout: 10 * time.Second}
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				idx := first + i
				f := tr.Requests[idx]
				url := urls[idx%len(urls)] + "/files/f/" + strconv.Itoa(int(f))
				r := reply{start: time.Now(), served: -1, caller: int8(c)}
				resp, err := client.Get(url)
				if err == nil {
					n, cerr := io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					r.ok = cerr == nil && resp.StatusCode == http.StatusOK && n == tr.Sizes[f]
					if id, perr := strconv.Atoi(resp.Header.Get("X-Served-By")); perr == nil {
						r.served = int8(id)
					}
				}
				r.took = time.Since(r.start)
				replies[i] = r
			}
		}(c)
	}
	wg.Wait()
	return replies
}

// nativeRep is one repetition against a fresh cluster.
type nativeRep struct {
	tr      *trace.Trace
	spec    trace.GenSpec
	genS    float64       // trace.Generate's part of setupS
	setupS  float64       // trace, store, cluster start and warm-up
	wall    time.Duration // timed phase
	replies []reply       // timed phase
	failed  int           // warm-up and timed
	peakMB  float64
	delta   native.Stats // cluster totals over the timed phase
}

func (r nativeRep) rps() float64 { return float64(len(r.replies)) / r.wall.Seconds() }

// latencies returns the timed phase's latencies in µs, sorted; a failed
// request counts as +Inf, so it misses any latency limit.
func (r nativeRep) latencies(keep func(i int, r reply) bool) []float64 {
	var us []float64
	for i, rp := range r.replies {
		if keep != nil && !keep(i, rp) {
			continue
		}
		if rp.ok {
			us = append(us, float64(rp.took)/float64(time.Microsecond))
		} else {
			us = append(us, math.Inf(1))
		}
	}
	sort.Float64s(us)
	return us
}

func failures(replies []reply) int {
	n := 0
	for _, r := range replies {
		if !r.ok {
			n++
		}
	}
	return n
}

// nativeRepetition builds the workload's inputs (trace, store, cluster),
// warms the caches, and times the rest of the trace. With a recorder every
// timed request becomes a span carrying entry node, serving node and bytes.
func nativeRepetition(rec *recorder, parent int, w workload, o options, nodes int) (nativeRep, error) {
	var rep nativeRep
	spec, err := w.genSpec(o.seed, o.scale)
	if err != nil {
		return rep, err
	}
	warm := scaled(w.warm, o.scale, 1)
	heap := watchHeap()

	setup := rec.begin(parent, "setup")
	t0 := time.Now()
	id := rec.begin(setup, "trace.Generate")
	tr, err := trace.Generate(spec)
	rep.tr, rep.spec, rep.genS = tr, spec, time.Since(t0).Seconds()
	rec.end(id, nil)
	if err != nil {
		return rep, fmt.Errorf("generating trace: %w", err)
	}
	id = rec.begin(setup, "native.Start")
	cl, err := native.Start(native.WithNodes(nodes), native.WithStore(native.StoreFromTrace(tr)),
		native.WithCacheMB(w.cacheMB), native.WithSeed(o.seed))
	rec.end(id, nil)
	if err != nil {
		return rep, fmt.Errorf("starting cluster: %w", err)
	}
	defer cl.Shutdown()
	urls := cl.URLs()
	id = rec.begin(setup, "warm-up")
	rep.failed = failures(closedLoop(urls, tr, 0, warm))
	rec.end(id, map[string]any{"requests": warm})
	rep.setupS = time.Since(t0).Seconds()
	rec.end(setup, nil)
	before := cl.Totals()

	timed := rec.begin(parent, "timed")
	t0 = time.Now()
	rep.replies = closedLoop(urls, tr, warm, tr.NumRequests()-warm)
	rep.wall = time.Since(t0)
	after := cl.Totals()
	rec.end(timed, map[string]any{"requests": len(rep.replies)})
	rep.peakMB = heap.peakMB()
	rep.failed += failures(rep.replies)

	rep.delta = native.Stats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Proxied: after.Proxied - before.Proxied, GossipOut: after.GossipOut - before.GossipOut,
		Retries: after.Retries - before.Retries, Failovers: after.Failovers - before.Failovers,
	}
	for i, rp := range rep.replies {
		f := tr.Requests[warm+i]
		rec.add(timed, "GET /files", int(rp.caller)+1, rp.start, rp.took, map[string]any{
			"entry": (warm + i) % nodes, "served": rp.served, "bytes": tr.Sizes[f], "ok": rp.ok,
		})
	}
	return rep, nil
}

// nativeResult runs native4. Each repetition also runs the simulator over
// the same trace on the same four nodes: its throughput is what
// sim_throughput_rps reports here, checked like any sim workload's.
func nativeResult(rec *recorder, parent int, w workload, o options) (*result, error) {
	check := newStatsCheck(w, o)
	res := &result{}
	var reps []nativeRep
	var tr *trace.Trace
	var companion simRun
	var measured time.Duration
	for i := 0; !o.enough(i, measured); i++ {
		// The traced pass runs its first repetition untraced: the gap
		// between the two is the tracing overhead.
		repRec := rec
		if o.traced && i == 0 {
			repRec = nil
		}
		span := rec.begin(parent, "repetition")
		rep, err := nativeRepetition(repRec, span, w, o, w.nodes)
		if err != nil {
			return nil, err
		}
		tr = rep.tr
		sys := w.systems[0]
		companion, err = measureRun(rec, span, sys.name, w.config(sys, o.seed, false), tr)
		rec.end(span, nil)
		if err != nil {
			return nil, err
		}
		if !check.ok(sys.name, i, statsOf(companion.res)) {
			rep.failed += tr.NumRequests()
		}
		res.Attempted += 2 * tr.NumRequests() // served by the cluster, simulated by the companion
		res.Failed += rep.failed + int(companion.res.Aborted)
		measured += rep.wall
		reps = append(reps, rep)
	}
	res.Detail = detail{Reps: len(reps), SimStats: check.first, Mismatches: check.diffs}

	if !o.traced {
		var setupS, hostNs, heapMB, p50, p99 []float64
		for _, r := range reps {
			setupS = append(setupS, r.setupS)
			hostNs = append(hostNs, 1e9/r.rps())
			heapMB = append(heapMB, r.peakMB)
			us := r.latencies(nil)
			p50 = append(p50, quantile(us, 0.5))
			p99 = append(p99, quantile(us, 0.99))
		}
		res.endToEnd(setupS, hostNs, heapMB, companion.res.Throughput)
		res.Detail.NativeLatencyUs = map[string]sampleStat{"p50": summarize(p50), "p99": summarize(p99)}
		return res, nil
	}

	m := newMetricSet(perLayer)
	untraced, tracedRep := reps[0], reps[len(reps)-1]
	layers := rec.begin(parent, "layers")
	defer rec.end(layers, nil)
	m.set("trace.generate_s", tracedRep.genS)
	m.set("zipf.sample_ns", zipfSampleNs(rec, layers, tracedRep.spec, o))
	setSimCounts(m, companion.res, tr.NumRequests())

	m.set("native.rps", tracedRep.rps())
	m.set("native.trace_overhead_frac", (untraced.rps()-tracedRep.rps())/untraced.rps())
	m.set("native.peak_heap_mb", tracedRep.peakMB)
	all := tracedRep.latencies(nil)
	m.set("native.lat_p50_us", quantile(all, 0.5))
	m.set("native.lat_p99_us", quantile(all, 0.99))
	m.set("native.lat_p999_us", quantile(all, 0.999))
	warm := tr.NumRequests() - len(tracedRep.replies)
	local := tracedRep.latencies(func(i int, r reply) bool { return int(r.served) == (warm+i)%w.nodes })
	forwarded := tracedRep.latencies(func(i int, r reply) bool { return r.served >= 0 && int(r.served) != (warm+i)%w.nodes })
	if len(local) > 0 && len(forwarded) > 0 {
		m.set("native.lat_local_p50_us", quantile(local, 0.5))
		m.set("native.lat_forwarded_p50_us", quantile(forwarded, 0.5))
		m.set("native.handoff_us", quantile(forwarded, 0.5)-quantile(local, 0.5))
	}
	d, n := tracedRep.delta, float64(len(tracedRep.replies))
	m.set("native.hit_ratio", float64(d.Hits)/float64(d.Hits+d.Misses))
	m.set("native.forward_frac", float64(d.Proxied)/n)
	m.set("native.gossip_per_req", float64(d.GossipOut)/n)
	m.set("native.retries", float64(d.Retries))
	m.set("native.failovers", float64(d.Failovers))

	// The bypass: one node, so no hand-off and no gossip.
	single := rec.begin(layers, "one node")
	one, err := nativeRepetition(nil, 0, w, o, 1)
	rec.end(single, nil)
	if err != nil {
		return nil, err
	}
	res.Attempted += tr.NumRequests()
	res.Failed += one.failed
	m.set("native.rps_1node", one.rps())

	if err := handlerLayers(rec, layers, w, o, tr, m); err != nil {
		return nil, err
	}
	res.Metrics = m.values
	return res, nil
}

// handlerLayers times a one-node cluster's handler in process, without TCP:
// /files runs the distribution decision and then serves, /local only
// serves, so their difference is the decision. It also times the store.
func handlerLayers(rec *recorder, parent int, w workload, o options, tr *trace.Trace, m *metricSet) error {
	store := native.StoreFromTrace(tr)
	cl, err := native.Start(native.WithNodes(1), native.WithStore(store), native.WithCacheMB(w.cacheMB), native.WithSeed(o.seed))
	if err != nil {
		return fmt.Errorf("starting one-node cluster: %w", err)
	}
	defer cl.Shutdown()
	h := cl.Node(0).Handler()
	n := scaled(50_000, o.scale, 100)
	if n > tr.NumRequests() {
		n = tr.NumRequests()
	}
	requests := func(prefix string) []*http.Request {
		reqs := make([]*http.Request, n)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, prefix+strconv.Itoa(int(tr.Requests[i])), nil)
		}
		return reqs
	}
	filesReqs, localReqs := requests("/files/f/"), requests("/local/f/")
	serve := func(name string, reqs []*http.Request) time.Duration {
		return rec.batches(parent, name, len(reqs), func(lo, hi int) {
			for _, r := range reqs[lo:hi] {
				h.ServeHTTP(httptest.NewRecorder(), r)
			}
		})
	}
	serve("warm handler", localReqs) // fill the cache so both timed paths hit alike
	// The two paths alternate batch by batch, so that a slow spell of the
	// host falls on both and their difference stays meaningful.
	var filesTook, localTook time.Duration
	for lo := 0; lo < n; lo += spanBatch {
		hi := lo + spanBatch
		if hi > n {
			hi = n
		}
		filesTook += serve("Handler /files", filesReqs[lo:hi])
		localTook += serve("Handler /local", localReqs[lo:hi])
	}
	files, local := nsPerOp(filesTook, n)/1e3, nsPerOp(localTook, n)/1e3
	m.set("native.handler_files_us", files)
	m.set("native.handler_local_us", local)
	m.set("native.decide_us", files-local)

	paths := store.Paths()
	gets := microOps(o)
	took := rec.batches(parent, "MemStore.Get", gets, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			store.Get(paths[i%len(paths)])
		}
	})
	m.set("native.store_get_ns", nsPerOp(took, gets))
	return nil
}

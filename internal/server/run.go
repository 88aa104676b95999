package server

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// driver wires the cluster model, network, and distribution policy
// together and implements policy.Env.
type driver struct {
	cfg   Config
	eng   *sim.Engine
	tr    *trace.Trace
	nodes []*cluster.Node
	net   *netsim.Network
	dist  policy.Distributor

	// Precomputed per-operation costs.
	niIn, parse, fwd float64

	// Per-node hardware, nil for a homogeneous run: resolved profiles and
	// each node's effective NI per-KB rate (Costs.NIOutKBps capped by the
	// profile's line rate).
	profiles  []cluster.Profile
	niOutKBps []float64

	next     int // next trace request to inject
	inflight int
	warmIdx  int
	failIdx  int

	measuring bool
	measStart float64
	lastDone  float64

	completed uint64
	aborted   uint64
	assigned  uint64
	forwarded uint64
	gossip    uint64 // policy control messages (Env sends + broadcast copies)

	latency *stats.Histogram

	// Persistent-connection state.
	connRNG     *rand.Rand
	connections uint64
	connReqs    uint64

	// Open-loop arrival state: schedIdx/schedRemain track the position
	// inside the (cycling) ArrivalSchedule.
	openLoop    bool
	arrivalRNG  *rand.Rand
	arrivalFn   func() // pre-bound inject-and-reschedule callback
	schedIdx    int
	schedRemain float64

	// Timeline buckets (completions per TimelineBucket interval).
	buckets []uint64

	// Observability (see observe.go): nil/zero means disabled.
	m      runMetrics
	series *seriesProbe

	// Cached optional-interface views of the policy, resolved once at
	// setup instead of type-asserted per request.
	clientAware policy.ClientAware
	dispatched  policy.Dispatched

	// Free list of pooled request jobs; the simulation is single-threaded,
	// so a plain stack suffices.
	reqPool []*requestJob
}

// requestJob is the pooled state of one client connection's lifecycle:
// router in, initial node NI and CPU, an optional dispatcher round trip,
// distribution decision, optional hand-off, then its requests one after
// another — each read at src (a cache lookup, a disk or home-disk read on a
// miss), shipped to svc if src is another node, and transmitted, its reply
// CPU charged chunk by chunk. Without persistent connections a job carries
// one request. It is a stage machine with one pre-bound callback: every
// hand-off to a resource or the network sets the stage that runs next and
// passes step, so a pooled job carries one method value instead of a
// closure per stage.
type requestJob struct {
	d     *driver
	step  func()  // pre-bound j.advance
	rem   float64 // reply KB whose transmit CPU is still to be charged
	t0    float64
	f     cache.FileID
	n0    int32 // node the current request arrives at
	svc   int32 // service node (the connection's owner); -1 until assigned
	src   int32 // node that reads the file; names the dispatcher until the decision
	first int32 // trace requests [first, end); next is being served
	next  int32
	end   int32
	stage reqStage
}

// reqStage names what a requestJob does when its pending hand-off completes.
type reqStage uint8

const (
	atRouterIn    reqStage = iota // through the router: NI-in at the arrival node
	atNIIn                        // accept and parse on the arrival node's CPU
	atParsed                      // query the dispatcher, if any, else decide
	atDispatcher                  // query delivered: the dispatcher's CPU
	atQueried                     // answer travels back to the arrival node
	atDecide                      // pick the service node, or route a connection's request
	atHandedOff                   // hand-off CPU done: the message to the service node
	atConnFirst                   // connection at its owner: serve the already parsed first request
	atConnNext                    // previous reply sent: the connection's next request arrives
	atForwarded                   // back-end forward CPU done: the read request to src
	atServe                       // cache lookup at src, disk on a miss
	atHomeRead                    // read request at the file's home node: its disk
	atHomeOut                     // home disk read done: NI-out at the home node
	atHomeWire                    // the file crosses the wire to src
	atHomeIn                      // NI-in at src
	atHomeCPU                     // src's message CPU
	atFetched                     // file in memory at src: ship it to svc, or transmit
	atReplied                     // a reply chunk's CPU done: the next chunk, or NI-out
	atShipOut                     // NI-out at src
	atShipWire                    // the file crosses the wire to svc
	atShipIn                      // NI-in at svc
	atTransmitted                 // NI-out at the service node
	atNIOut                       // router out
	atDone                        // reply left the cluster
)

func (d *driver) getRequestJob() *requestJob {
	if n := len(d.reqPool); n > 0 {
		j := d.reqPool[n-1]
		d.reqPool = d.reqPool[:n-1]
		return j
	}
	j := &requestJob{d: d}
	j.step = j.advance
	return j
}

// advance runs the stage the last hand-off completed, and any stage that
// follows it at the same instant, up to the next hand-off. A hand-off is
// the last thing a stage does: its callback may run before it returns,
// and a released job may already carry the next connection.
func (j *requestJob) advance() {
	d := j.d
	switch j.stage {
	case atRouterIn:
		node0 := d.nodes[j.n0]
		if node0.Failed() {
			j.abort()
			return
		}
		j.stage = atNIIn
		node0.NIIn.Acquire(d.niIn, j.step)
	case atNIIn:
		cpuCost := d.parse
		if int(j.n0) == d.dist.FrontEnd() {
			cpuCost = d.cfg.FECostSec // the front-end's accept+parse+hand-off budget
		}
		node0 := d.nodes[j.n0]
		j.stage = atParsed
		node0.CPU.Acquire(node0.CPUTime(cpuCost), j.step)
	case atParsed:
		// A Dispatched policy charges every parsed request a decision query:
		// a message round trip to the dispatcher plus its per-query CPU.
		disp := -1
		if d.dispatched != nil {
			disp, _ = d.dispatched.Dispatcher()
		}
		switch {
		case disp < 0 || disp == int(j.n0):
			j.stage = atDecide
			j.advance()
		case d.nodes[disp].Failed():
			// Dispatcher down: the whole scheme stalls, like LARD's
			// front-end; abort the job.
			j.abort()
		default:
			j.src = int32(disp)
			j.stage = atDispatcher
			d.net.Send(d.nodes[j.n0], d.nodes[disp], d.cfg.Costs.ReqKB, j.step)
		}
	case atDispatcher:
		_, cpuSec := d.dispatched.Dispatcher()
		disp := d.nodes[j.src]
		j.stage = atQueried
		disp.CPU.Acquire(disp.CPUTime(cpuSec), j.step)
	case atQueried:
		j.stage = atDecide
		d.net.Send(d.nodes[j.src], d.nodes[j.n0], d.cfg.Costs.ReqKB, j.step)
	case atDecide:
		if j.svc >= 0 {
			// A request on a persistent connection: the owner reads it
			// itself, or — back-end forwarding — the caching node reads it
			// and ships it to the owner, which transmits it to the client.
			src := d.dist.Service(int(j.svc), j.f)
			if src == int(j.svc) || !d.Alive(src) {
				j.src = j.svc
				j.stage = atServe
				j.advance()
				return
			}
			d.forwarded++
			d.m.forwarded.Inc()
			j.src = int32(src)
			owner := d.nodes[j.svc]
			j.stage = atForwarded
			owner.CPU.Acquire(owner.CPUTime(d.fwd), j.step)
			return
		}
		svc := d.dist.Service(int(j.n0), j.f)
		j.svc, j.src = int32(svc), int32(svc)
		d.nodes[svc].AddConnection()
		d.dist.OnAssign(svc)
		// A persistent connection counts its requests as it serves them,
		// and its one hand-off is not a request's forward.
		persistent := d.cfg.persistent()
		if !persistent {
			d.assigned++
			d.m.assigned.Inc()
		}
		if svc == int(j.n0) {
			j.stage = d.atService()
			j.advance()
			return
		}
		if !persistent {
			d.forwarded++
			d.m.forwarded.Inc()
		}
		fwdCost := d.fwd
		if int(j.n0) == d.dist.FrontEnd() {
			fwdCost = 0 // already inside the front-end budget
		}
		node0 := d.nodes[j.n0]
		j.stage = atHandedOff
		node0.CPU.Acquire(node0.CPUTime(fwdCost), j.step)
	case atHandedOff:
		j.stage = d.atService()
		d.net.Send(d.nodes[j.n0], d.nodes[j.svc], d.cfg.Costs.ReqKB, j.step)
	case atConnFirst:
		if d.nodes[j.svc].Failed() {
			j.abort()
			return
		}
		j.t0 = d.eng.Now()
		d.assigned++
		d.m.assigned.Inc()
		j.stage = atDecide
		j.advance()
	case atConnNext:
		// The request arrives over the open connection and is parsed at
		// the owner.
		j.f = d.tr.Requests[j.next]
		j.t0 = d.eng.Now()
		d.assigned++
		d.m.assigned.Inc()
		j.n0 = j.svc
		j.stage = atRouterIn
		d.net.RouterIn(d.cfg.Costs.ReqKB, j.step)
	case atForwarded:
		j.stage = atServe
		d.net.Send(d.nodes[j.svc], d.nodes[j.src], d.cfg.Costs.ReqKB, j.step)
	case atServe:
		node := d.nodes[j.src]
		if node.Failed() {
			j.abort()
			return
		}
		j.stage = atFetched
		if node.Cache.Access(j.f, d.tr.Size(j.f)) {
			j.advance()
			return
		}
		// A miss reads the local disk or, with an explicit distributed file
		// system, the disk of the file's home node across the network.
		if d.cfg.DistributedFS {
			if home := d.nodes[fileHome(j.f, len(d.nodes))]; home != node && !home.Failed() {
				j.stage = atHomeRead
				d.net.Send(node, home, d.cfg.Costs.ReqKB, j.step)
				return
			}
		}
		node.Disk.Acquire(node.DiskTime(d.cfg.Costs.DiskTime(j.kb())), j.step)
	case atHomeRead:
		home := d.nodes[fileHome(j.f, len(d.nodes))]
		j.stage = atHomeOut
		home.Disk.Acquire(home.DiskTime(d.cfg.Costs.DiskTime(j.kb())), j.step)
	case atHomeOut:
		home := fileHome(j.f, len(d.nodes))
		j.stage = atHomeWire
		d.nodes[home].NIOut.Acquire(d.niOut(home, j.kb()), j.step)
	case atHomeWire:
		home := d.nodes[fileHome(j.f, len(d.nodes))]
		j.stage = atHomeIn
		d.eng.Schedule(d.net.WireTime(home, d.nodes[j.src], j.kb()), j.step)
	case atHomeIn:
		j.stage = atHomeCPU
		d.nodes[j.src].NIIn.Acquire(d.niOut(int(j.src), j.kb()), j.step)
	case atHomeCPU:
		j.stage = atFetched
		d.nodes[j.src].CPU.Acquire(d.cfg.Net.MsgCPU, j.step)
	case atFetched:
		if j.src != j.svc {
			// The read-and-ship work at the caching node.
			j.stage = atShipOut
			d.nodes[j.src].CPU.Acquire(d.cfg.Net.MsgCPU, j.step)
			return
		}
		j.rem = j.kb()
		j.transmit(d.cfg.Costs.ReplyFixed)
	case atReplied:
		j.transmit(0)
	case atShipOut:
		j.stage = atShipWire
		d.nodes[j.src].NIOut.Acquire(d.niOut(int(j.src), j.kb()), j.step)
	case atShipWire:
		j.stage = atShipIn
		d.eng.Schedule(d.net.WireTime(d.nodes[j.src], d.nodes[j.svc], j.kb()), j.step)
	case atShipIn:
		// Once NI-in at svc is done the file is in memory there.
		j.src = j.svc
		j.stage = atFetched
		d.nodes[j.svc].NIIn.Acquire(d.niOut(int(j.svc), j.kb()), j.step)
	case atTransmitted:
		j.stage = atNIOut
		d.nodes[j.svc].NIOut.Acquire(d.niOut(int(j.svc), j.kb()), j.step)
	case atNIOut:
		j.stage = atDone
		d.net.RouterOut(j.kb(), j.step)
	case atDone:
		d.completed++
		d.m.completed.Inc()
		d.lastDone = d.eng.Now()
		if d.measuring {
			d.latency.Add(d.eng.Now() - j.t0)
			d.m.latency.Observe(d.eng.Now() - j.t0)
			d.recordTimeline()
		}
		j.next++
		if j.next < j.end {
			j.stage = atConnNext
			j.advance()
			return
		}
		j.close()
	}
}

// atService is the stage a job enters at its service node: the cache
// lookup of a single request, or a persistent connection's first request.
func (d *driver) atService() reqStage {
	if d.cfg.persistent() {
		return atConnFirst
	}
	return atServe
}

// close retires a job whose requests were all served.
func (j *requestJob) close() {
	d, svc, f0, n := j.d, int(j.svc), j.d.tr.Requests[j.first], j.end-j.first
	j.release()
	d.nodes[svc].RemoveConnection()
	d.dist.OnComplete(svc, f0)
	if d.cfg.persistent() {
		d.connections++
		d.connReqs += uint64(n)
	}
	d.retire()
}

// abort drops a job at a failed node (or dispatcher), counting every request
// it had not served: the current one and the rest of its connection.
func (j *requestJob) abort() {
	d, svc, f, lost := j.d, int(j.svc), j.f, uint64(j.end-j.next)
	j.release()
	if svc >= 0 {
		d.nodes[svc].RemoveConnection()
		d.dist.OnComplete(svc, f)
	}
	d.aborted += lost
	d.m.aborted.Add(lost)
	d.retire()
}

func (j *requestJob) release() {
	j.d.reqPool = append(j.d.reqPool, j)
}

// cpuChunkKB is the transmit-processing quantum: reply CPU work is charged
// in chunks of this many kilobytes, so transmissions interleave with request
// parsing and forwarding as in the LARD paper's cost model (40 us per 512
// bytes; see requestJob.transmit).
const cpuChunkKB = 8

// kb is the size of the current request's reply in kilobytes.
func (j *requestJob) kb() float64 { return float64(j.d.tr.Size(j.f)) / 1024 }

// transmit charges the service node's CPU for the next cpuChunkKB of the
// reply's transmit processing (mu_m), plus fixed — the per-reply cost, on
// the first chunk — and moves on to NI-out once nothing is left; a
// zero-byte reply goes straight there. Each chunk re-enters the FCFS CPU
// queue, so concurrent transmissions and request parsing interleave at
// chunk granularity: the behavior implied by the per-512-byte transmit cost
// of the LARD paper the parameters come from.
func (j *requestJob) transmit(fixed float64) {
	if j.rem <= 0 {
		j.stage = atTransmitted
		j.advance()
		return
	}
	kb := min(cpuChunkKB, j.rem)
	j.rem -= kb
	node := j.d.nodes[j.svc]
	j.stage = atReplied
	node.CPU.Acquire(node.CPUTime(kb/j.d.cfg.Costs.ReplyKBps+fixed), j.step)
}

// Run simulates one configuration over a trace and reports the measured
// results. It never panics: configuration errors — including ones the
// model layers assert with panics — come back as errors, so one bad grid
// point cannot kill a whole sweep.
func Run(cfg Config, tr *trace.Trace) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, fmt.Errorf("server: %s on %d nodes: %v", cfg.Policy, cfg.Nodes, r)
		}
	}()
	d, err := newDriver(cfg, tr)
	if err != nil {
		return Result{}, err
	}
	d.eng.Run()
	d.series.flush()

	return d.result(), nil
}

// newDriver is Run's set-up: it validates the inputs, builds the cluster
// and the policy, and primes the first arrivals; the run itself is then
// d.eng.Run().
func newDriver(cfg Config, tr *trace.Trace) (*driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxRequests > 0 {
		tr = tr.Truncate(cfg.MaxRequests)
	}
	if tr.NumRequests() == 0 {
		return nil, fmt.Errorf("server: empty trace")
	}
	if tr.NumRequests() > math.MaxInt32 {
		return nil, fmt.Errorf("server: %d requests, more than a job can index", tr.NumRequests())
	}

	d := &driver{
		cfg:     cfg,
		eng:     sim.NewEngine(),
		tr:      tr,
		net:     nil,
		niIn:    cfg.Costs.NIInTime(),
		parse:   cfg.Costs.ParseTime(),
		fwd:     cfg.Costs.ForwardTime(),
		latency: stats.NewHistogram(),
	}
	if cfg.persistent() {
		d.connRNG = rand.New(rand.NewSource(cfg.Seed + 1))
	}
	d.net = netsim.New(d.eng, cfg.Net)
	d.profiles = cfg.resolvedProfiles()
	d.nodes = make([]*cluster.Node, cfg.Nodes)
	for i := range d.nodes {
		if d.profiles == nil {
			d.nodes[i] = cluster.NewNode(d.eng, i, cfg.CacheBytes)
			continue
		}
		p := d.profiles[i]
		if p.CacheBytes == 0 {
			p.CacheBytes = cfg.CacheBytes
		}
		d.nodes[i] = cluster.NewProfiledNode(d.eng, i, p)
	}
	if d.profiles != nil {
		d.niOutKBps = make([]float64, cfg.Nodes)
		for i, p := range d.profiles {
			d.niOutKBps[i] = cfg.Costs.NIOutKBps
			if p.LinkKBps > 0 && p.LinkKBps < d.niOutKBps[i] {
				d.niOutKBps[i] = p.LinkKBps
			}
		}
	}
	// Gossip fan-outs above netsim's threshold take the flat broadcast path
	// (pinned by TestFlatGolden).
	d.net.RegisterFleet(d.nodes)

	popts := policy.Options{Seed: cfg.Seed, Files: tr.NumFiles(), Requests: tr.Requests}
	if d.profiles != nil {
		// Weighted policies scale their thresholds and selections by
		// relative node capacity; unweighted ones ignore this.
		popts.Weights = capacityWeights(d.profiles, cfg.Costs, tr)
	}
	// The policy is a full spec ("chash:vnodes=256,load=1.25"): its
	// parameters are applied on top of the family's defaults.
	spec, err := policy.ParseSpec(cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if d.dist, err = spec.Build(d, popts); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if d.dist.FrontEnd() >= 0 && !(cfg.FECostSec > 0) {
		return nil, fmt.Errorf("server: %s has a front-end, which needs a positive FECostSec, got %v", d.dist.Name(), cfg.FECostSec)
	}
	d.clientAware, _ = d.dist.(policy.ClientAware)
	d.dispatched, _ = d.dist.(policy.Dispatched)

	d.bindMetrics(cfg.Metrics)
	d.startSeries(cfg.Series)

	d.warmIdx = int(cfg.WarmFraction * float64(tr.NumRequests()))
	d.failIdx = -1
	if cfg.FailNode >= 0 {
		d.failIdx = int(cfg.FailAtFrac * float64(tr.NumRequests()))
	}
	if d.warmIdx == 0 {
		d.beginMeasurement()
	}

	if len(cfg.ArrivalSchedule) > 0 {
		// Open loop: Poisson arrivals at the scheduled rate, independent of
		// completions.
		d.openLoop = true
		d.arrivalRNG = rand.New(rand.NewSource(cfg.Seed + 7))
		d.schedRemain = cfg.ArrivalSchedule[0].Duration
		d.scheduleArrival()
	} else {
		// Closed loop at saturation: prime the connection window; every
		// completion injects the next request.
		window := cfg.WindowPerNode * cfg.Nodes
		for i := 0; i < window && d.next < tr.NumRequests(); i++ {
			d.inject()
		}
	}
	return d, nil
}

// scheduleArrival plants the next open-loop Poisson arrival.
func (d *driver) scheduleArrival() {
	if d.next >= d.tr.NumRequests() {
		return
	}
	if d.arrivalFn == nil {
		d.arrivalFn = func() {
			d.inject()
			d.scheduleArrival()
		}
	}
	d.eng.Schedule(d.nextArrivalGap(), d.arrivalFn)
}

// nextArrivalGap draws the time to the next open-loop arrival: it walks a
// unit-rate exponential across the piecewise-constant profile (the standard
// inversion for an inhomogeneous Poisson process), cycling the schedule so
// a one-period profile covers any run length. Zero-rate segments absorb no
// work and are skipped whole. A constant rate (WithArrivalRate) is one
// segment of duration MaxFloat64, from which a gap never visibly subtracts,
// so each gap is exactly one exponential over the rate.
func (d *driver) nextArrivalGap() float64 {
	sched := d.cfg.ArrivalSchedule
	e := d.arrivalRNG.ExpFloat64() // unit-rate exponential "work"
	gap := 0.0
	for {
		seg := sched[d.schedIdx]
		if seg.Rate > 0 {
			if need := e / seg.Rate; need <= d.schedRemain {
				d.schedRemain -= need
				return gap + need
			}
			e -= d.schedRemain * seg.Rate
		}
		gap += d.schedRemain
		d.schedIdx = (d.schedIdx + 1) % len(sched)
		d.schedRemain = sched[d.schedIdx].Duration
	}
}

// inject starts the next trace request (or, in persistent mode, the next
// connection worth of requests), if any remain.
func (d *driver) inject() {
	if d.next >= d.tr.NumRequests() {
		return
	}
	if d.next >= d.warmIdx && !d.measuring {
		d.beginMeasurement()
	}
	if d.failIdx >= 0 && d.next >= d.failIdx && d.cfg.FailNode >= 0 &&
		!d.nodes[d.cfg.FailNode].Failed() {
		d.nodes[d.cfg.FailNode].Fail()
	}
	first := d.next
	d.next++
	if d.cfg.persistent() {
		// A geometric run of consecutive trace requests rides one
		// connection.
		d.next = min(first+geometricLength(d.connRNG, d.cfg.ReqsPerConn), d.tr.NumRequests())
	}
	d.start(first, d.next)
}

func (d *driver) beginMeasurement() {
	d.measuring = true
	d.measStart = d.eng.Now()
	d.lastDone = d.eng.Now()
	for _, n := range d.nodes {
		n.ResetStats()
	}
	d.net.ResetStats()
	d.completed, d.aborted, d.assigned, d.forwarded = 0, 0, 0, 0
	d.gossip = 0
	d.connections, d.connReqs = 0, 0
	d.latency = stats.NewHistogram()
	d.buckets = nil
	if d.series != nil {
		d.series.begin()
	}
}

// start opens a connection carrying trace requests [first, end) and runs
// its lifecycle on a pooled requestJob, so steady-state request processing
// allocates nothing in the driver.
func (d *driver) start(first, end int) {
	d.inflight++
	f := d.tr.Requests[first]
	if d.clientAware != nil {
		d.clientAware.SetNextClient(d.tr.Client(first))
	}
	j := d.getRequestJob()
	j.f = f
	j.n0 = int32(d.dist.Initial(f))
	j.svc = -1
	j.first, j.next, j.end = int32(first), int32(first), int32(end)
	j.t0 = d.eng.Now()
	j.stage = atRouterIn
	d.net.RouterIn(d.cfg.Costs.ReqKB, j.step)
}

// niOut is the NI time to move a reply of skb kilobytes at node n's
// effective line rate. With default profiles the expression is exactly
// Costs.NIOutTime, so homogeneous runs are bit-identical.
func (d *driver) niOut(n int, skb float64) float64 {
	if d.niOutKBps == nil {
		return d.cfg.Costs.NIOutTime(skb)
	}
	return d.cfg.Costs.NIOutFixed + skb/d.niOutKBps[n]
}

// fileHome spreads files over the cluster's disks (splitmix64 finalizer).
func fileHome(f cache.FileID, n int) int {
	x := uint64(f) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// retire closes the books on a finished or aborted job; in the closed loop
// the freed connection slot takes the next request.
func (d *driver) retire() {
	d.inflight--
	if !d.openLoop {
		d.inject()
	}
}

// recordTimeline counts this completion in its timeline bucket.
func (d *driver) recordTimeline() {
	w := d.cfg.TimelineBucket
	if w <= 0 {
		return
	}
	idx := int((d.eng.Now() - d.measStart) / w)
	for len(d.buckets) <= idx {
		d.buckets = append(d.buckets, 0)
	}
	d.buckets[idx]++
}

func (d *driver) result() Result {
	elapsed := d.lastDone - d.measStart
	r := Result{
		System:          d.dist.Name(),
		Nodes:           d.cfg.Nodes,
		Completed:       d.completed,
		Aborted:         d.aborted,
		ControlMessages: d.net.Messages(),
		GossipMessages:  d.gossip,
		SimTime:         elapsed,
		Events:          d.eng.Fired(),
	}
	if elapsed > 0 {
		r.Throughput = float64(d.completed) / elapsed
	}
	if d.assigned > 0 {
		r.ForwardedFrac = float64(d.forwarded) / float64(d.assigned)
	}

	var hits, total uint64
	var cpu, disk, load float64
	r.PerNodeCPUUtil = make([]float64, len(d.nodes))
	for i, n := range d.nodes {
		s := n.Cache.Stats()
		hits += s.Hits
		total += s.Total
		r.PerNodeCPUUtil[i] = n.CPU.Utilization()
		cpu += r.PerNodeCPUUtil[i]
		disk += n.Disk.Utilization()
		load += n.MeanLoad()
	}
	if total > 0 {
		r.MissRate = 1 - float64(hits)/float64(total)
	}
	n := float64(len(d.nodes))
	r.MeanCPUUtil = cpu / n
	r.CPUIdle = 1 - r.MeanCPUUtil
	r.MeanDiskUtil = disk / n
	r.MeanLoad = load / n
	r.RouterUtil = d.net.Router.Utilization()

	var peakLoad float64
	for _, node := range d.nodes {
		if m := node.MeanLoad(); m > peakLoad {
			peakLoad = m
		}
	}
	if r.MeanLoad > 0 {
		r.LoadImbalance = peakLoad / r.MeanLoad
	}

	r.LatencyMean = d.latency.Mean()
	r.LatencyP50 = d.latency.Quantile(0.5)
	r.LatencyP99 = d.latency.Quantile(0.99)

	r.Connections = d.connections
	if d.connections > 0 {
		r.ReqsPerConn = float64(d.connReqs) / float64(d.connections)
	}

	if w := d.cfg.TimelineBucket; w > 0 {
		r.TimelineBucket = w
		r.Timeline = make([]float64, len(d.buckets))
		for i, c := range d.buckets {
			r.Timeline[i] = float64(c) / w
		}
	}

	if l2s, ok := d.dist.(*core.L2S); ok {
		s := l2s.Stats()
		r.L2S = &s
	}
	return r
}

// policy.Env implementation.

// N implements policy.Env.
func (d *driver) N() int { return d.cfg.Nodes }

// Now implements policy.Env.
func (d *driver) Now() float64 { return d.eng.Now() }

// Load implements policy.Env.
func (d *driver) Load(n int) int { return d.nodes[n].Load() }

// Alive implements policy.Env.
func (d *driver) Alive(n int) bool { return !d.nodes[n].Failed() }

// SendControl implements policy.Env: a 4-byte control message.
func (d *driver) SendControl(from, to int, onDeliver func()) {
	if d.nodes[from].Failed() || d.nodes[to].Failed() {
		return
	}
	d.gossip++
	d.net.Send(d.nodes[from], d.nodes[to], 0.004, onDeliver)
}

// BroadcastControl implements policy.Env.
func (d *driver) BroadcastControl(from int, onDeliver func()) {
	if d.nodes[from].Failed() {
		return
	}
	d.gossip += uint64(d.net.Broadcast(d.nodes[from], d.nodes, 0.004, onDeliver))
}

// PairRateKBps implements policy.PairRater for proximity-aware dispatch:
// the effective line rate between two nodes, or the uncapped configured
// link bandwidth for a node talking to itself (no wire is crossed).
func (d *driver) PairRateKBps(a, b int) float64 {
	if a == b {
		return d.net.Config().LinkKBps
	}
	return d.net.LinkRate(d.nodes[a], d.nodes[b])
}

var (
	_ policy.Env       = (*driver)(nil)
	_ policy.PairRater = (*driver)(nil)
)

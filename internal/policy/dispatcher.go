package policy

// DispatchLARD is the scalable LARD variant of Aron et al. (USENIX 2000)
// that the paper's Section 6 discusses: client connections are accepted by
// all cluster nodes (round-robin DNS here), but every distribution
// decision is still centralized — the accepting node queries a dedicated
// dispatcher, which runs the LARD/R mapping and names the service node,
// and the connection is then handed off directly.
//
// This removes the original front-end's accept/parse bottleneck (the
// dispatcher only answers tiny queries), but, as the paper argues, keeps
// its other problems: the dispatcher remains a single point of failure and
// a (higher) bottleneck, its cache is still wasted, and every request pays
// a two-way query on top of the hand-off.
type DispatchLARD struct {
	lard *LARD
	rr   *RoundRobin
	env  Env

	// QueryCPUSec is the dispatcher CPU time per decision query.
	QueryCPUSec float64
}

// NewDispatchLARD builds the dispatcher variant over a server-set table:
// node 0 is the dispatcher, nodes 1..N-1 accept and serve.
func NewDispatchLARD(env Env, opts LARDOptions, queryCPU float64, sets *FileSets) *DispatchLARD {
	return &DispatchLARD{
		lard:        NewLARD(env, opts, sets),
		rr:          NewRoundRobin(env),
		env:         env,
		QueryCPUSec: queryCPU,
	}
}

// Name implements Distributor.
func (d *DispatchLARD) Name() string { return "lard-dispatch" }

// FrontEnd implements Distributor: the dispatcher never serves requests,
// but unlike LARD's front-end it does not accept them either, so it is not
// reported as the connection entry point.
func (d *DispatchLARD) FrontEnd() int {
	if d.env.N() == 1 {
		return -1
	}
	return 0
}

// Initial implements Distributor: connections land on the serving nodes
// (1..N-1) round robin.
func (d *DispatchLARD) Initial(f FileID) int {
	n := d.env.N()
	if n == 1 {
		return 0
	}
	for i := 0; i < n; i++ {
		cand := d.rr.Next()
		if cand != 0 {
			return cand
		}
	}
	return 1
}

// Service implements Distributor by consulting the centralized LARD/R
// mapping (the simulator charges the query round trip via Dispatcher).
func (d *DispatchLARD) Service(initial int, f FileID) int {
	return d.lard.Service(0, f)
}

// Dispatcher implements the server.Dispatched hook: every decision costs a
// query to node 0.
func (d *DispatchLARD) Dispatcher() (node int, cpuSec float64) {
	return 0, d.QueryCPUSec
}

// OnAssign implements Distributor.
func (d *DispatchLARD) OnAssign(n int) { d.lard.OnAssign(n) }

// OnComplete implements Distributor.
func (d *DispatchLARD) OnComplete(n int, f FileID) { d.lard.OnComplete(n, f) }

// Package core implements L2S, the Locality and Load balancing Server that
// is the paper's primary contribution (Section 4): a fully distributed
// locality-conscious request-distribution algorithm in which every node
// accepts, parses, forwards, and services requests — no front-end, no
// single point of failure.
//
// Connections arrive at nodes via round-robin DNS. For each file the
// cluster maintains a server set: the nodes allowed to cache and serve it.
// An initial node services a request itself when it is not overloaded and
// is in the file's server set (or the file has never been requested);
// otherwise the request is forwarded to the least-loaded member of the set.
// When both the initial node and that member are overloaded, the
// least-loaded node in the whole cluster joins the set (replication grows);
// sets shrink again when their assigned node is underloaded and the set has
// been stable for a while.
//
// Nodes learn about each other through periodic control messages: a node
// broadcasts its load whenever it has drifted by BroadcastDelta connections
// since its last broadcast, and every server-set modification is broadcast
// by the node that made it. Distribution decisions therefore use exact
// knowledge of the deciding node's own load but slightly stale views of
// everyone else's — the price of decentralization that Section 5 shows to
// be small.
package core

import (
	"fmt"
	"math"

	"repro/internal/policy"
	"repro/internal/spec"
)

// Options are L2S's tunables with the values used in the paper's
// evaluation.
type Options struct {
	// T is the overload threshold: a node with more than T open
	// connections is overloaded (paper: 20).
	T int
	// LowT is the underload threshold t used when shrinking server sets
	// (paper: 10).
	LowT int
	// BroadcastDelta is the load change, in connections, that triggers a
	// load broadcast (Section 5.1: 4).
	BroadcastDelta int
	// ShrinkAfter is how long a server set must remain unmodified before
	// it may shrink, in seconds (finite, >= 0).
	ShrinkAfter float64
	// Oracle disables dissemination staleness: decisions read true remote
	// loads. It quantifies the cost of gossip in the sensitivity study and
	// is not part of the paper's L2S.
	Oracle bool
}

// DefaultOptions returns the parameters of the paper's evaluation: T=20,
// t=10, broadcast on a drift of 4 connections, sets stable for 20 s before
// shrinking.
func DefaultOptions() Options {
	return Options{T: 20, LowT: 10, BroadcastDelta: 4, ShrinkAfter: 20}
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.T <= 0 || o.LowT < 0 || o.LowT > o.T {
		return fmt.Errorf("core: bad L2S thresholds %+v", o)
	}
	if o.BroadcastDelta <= 0 {
		return fmt.Errorf("core: BroadcastDelta must be positive, got %d", o.BroadcastDelta)
	}
	if o.ShrinkAfter < 0 || math.IsNaN(o.ShrinkAfter) || math.IsInf(o.ShrinkAfter, 0) {
		return fmt.Errorf("core: ShrinkAfter must be a finite number of seconds >= 0, got %v", o.ShrinkAfter)
	}
	return nil
}

// init places L2S in the policy registry next to the baselines it is
// evaluated against, so CLIs and sweeps construct every policy through
// policy.New. Options.L2S carries this package's Options. l2s-weighted
// scales L2S's thresholds and selections by the per-node capacity weights
// the simulator derives from hardware profiles (Options.Weights); on a
// homogeneous cluster it is exactly l2s.
func init() {
	for _, name := range []string{"l2s", "l2s-weighted"} {
		weighted := name == "l2s-weighted"
		policy.Register(name, func(env policy.Env, popts policy.Options) (policy.Distributor, error) {
			opts, ok := optionsOf(popts)
			if !ok {
				return nil, fmt.Errorf("core: policy Options.L2S has type %T, want core.Options", popts.L2S)
			}
			if err := opts.Validate(); err != nil {
				return nil, err
			}
			l := New(env, opts, policy.NewFileSets(popts.Files, popts.Requests))
			if weighted {
				l.weights = popts.NodeWeights(env.N())
			}
			return l, nil
		})
		policy.RegisterParams(name, l2sParams()...)
	}
}

// optionsOf returns the L2S options po carries, the defaults when it
// carries none or the zero Options; ok is false when po.L2S holds a foreign
// type.
func optionsOf(po policy.Options) (o Options, ok bool) {
	o, ok = po.L2S.(Options)
	if !ok && po.L2S != nil {
		return o, false
	}
	if o == (Options{}) {
		o = DefaultOptions()
	}
	return o, true
}

// l2sParams declares the spec parameters of the L2S family, which the l2sd
// daemon's -policy flag takes as well. Each Set materializes the defaults
// before setting one field, so "l2s:delta=8" keeps T=20, t=10. A foreign
// type already stored in Options.L2S is left untouched for the factory to
// reject.
func l2sParams() []spec.Param[policy.Options] {
	set := func(f func(*Options, float64)) func(*policy.Options, float64) {
		return func(po *policy.Options, v float64) {
			if opts, ok := optionsOf(*po); ok {
				f(&opts, v)
				po.L2S = opts
			}
		}
	}
	return []spec.Param[policy.Options]{
		{Key: "T", Kind: spec.Int, Min: 1, Max: 1e6,
			Set: set(func(o *Options, v float64) { o.T = int(v) })},
		{Key: "t", Kind: spec.Int, Min: 0, Max: 1e6,
			Set: set(func(o *Options, v float64) { o.LowT = int(v) })},
		{Key: "delta", Kind: spec.Int, Min: 1, Max: 1e6,
			Set: set(func(o *Options, v float64) { o.BroadcastDelta = int(v) })},
		{Key: "shrink", Kind: spec.Float, Min: 0, Max: 1e6,
			Set: set(func(o *Options, v float64) { o.ShrinkAfter = v })},
		{Key: "oracle", Kind: spec.Bool,
			Set: set(func(o *Options, v float64) { o.Oracle = v != 0 })},
	}
}

// L2S implements policy.Distributor.
type L2S struct {
	env  policy.Env
	opts Options

	// weights holds per-node relative capacities for the l2s-weighted
	// variant: loads are compared as load/weight, which makes the overload
	// threshold effectively T*w_i per node, and set growth prefers nodes
	// with spare weighted capacity. nil (plain L2S) behaves exactly as
	// published: every comparison divides by exactly 1.0.
	weights []float64

	rr *policy.RoundRobin

	// seen[n] is the last load value node n broadcast, as every other node
	// sees it; gossip decides when a node broadcasts, and delivered[n],
	// bound once per node, installs node n's broadcast when it arrives.
	seen      []int
	gossip    LoadGossip
	delivered []func()

	sets *policy.FileSets

	// Statistics.
	loadBroadcasts uint64
	setBroadcasts  uint64
	grows, shrinks uint64
}

// New builds an L2S distributor over the environment's cluster and a
// server-set table (policy.NewFileSets).
func New(env policy.Env, opts Options, sets *policy.FileSets) *L2S {
	if err := opts.Validate(); err != nil {
		panic(err.Error())
	}
	n := env.N()
	l := &L2S{
		env:       env,
		opts:      opts,
		rr:        policy.NewRoundRobin(env),
		seen:      make([]int, n),
		gossip:    NewLoadGossip(n, opts.BroadcastDelta),
		delivered: make([]func(), n),
		sets:      sets,
	}
	for i := range l.delivered {
		l.delivered[i] = func() {
			l.seen[i] = l.gossip.Delivered(i)
			// Load may have drifted again while the broadcast was in flight.
			l.maybeBroadcastLoad(i)
		}
	}
	return l
}

// Name implements policy.Distributor.
func (l *L2S) Name() string {
	if l.weights != nil {
		return "l2s-weighted"
	}
	return "l2s"
}

// weight returns node n's relative capacity (1 when unweighted).
func (l *L2S) weight(n int) float64 {
	if l.weights == nil {
		return 1
	}
	return l.weights[n]
}

// FrontEnd implements policy.Distributor: L2S has none.
func (l *L2S) FrontEnd() int { return -1 }

// Initial implements policy.Distributor: round-robin DNS.
func (l *L2S) Initial(f policy.FileID) int { return l.rr.Next() }

// loadAs returns node n's load as observed from node observer: exact for
// the observer itself, the last broadcast value for everyone else.
func (l *L2S) loadAs(observer, n int) int {
	if n == observer || l.opts.Oracle {
		return l.env.Load(n)
	}
	return l.seen[n]
}

// Service implements the L2S distribution algorithm, executed at the
// initial node with the information visible there: the shared rule
// (Decide) over this node's gossiped load view, applied to the simulator's
// FileSets.
func (l *L2S) Service(initial int, f policy.FileID) int {
	// Capacity-scaled load view: with nil weights this is the published
	// algorithm (scaling by exactly 1.0); with weights the overload
	// threshold is effectively T*w_i per node.
	view := func(n int) float64 { return float64(l.loadAs(initial, n)) / l.weight(n) }
	r := l.sets.Rank(int32(f))
	stable := func() bool { return l.env.Now()-l.sets.Modified(r) > l.opts.ShrinkAfter }
	d := Decide(l.sets.Nodes(r), initial, l.env.N(), l.opts.T, l.opts.LowT, view, l.env.Alive, stable)
	switch d.Edit {
	case Keep:
		return d.Service
	case Reset:
		l.sets.SetSingle(r, d.Service)
		l.grows++
	case Grow:
		l.sets.Append(r, d.Service, l.env.Now())
		l.grows++
	case Shrink:
		if d.At >= 0 {
			l.sets.RemoveAt(r, d.At, l.env.Now())
		} else {
			l.sets.Touch(r, l.env.Now())
		}
		l.shrinks++
	}
	l.broadcastSetChange(initial)
	return d.Service
}

// broadcastSetChange charges the cost of disseminating a server-set
// modification. Set contents are shared memory in the simulator (the
// real system replicates them), so only the cost and the counter matter.
func (l *L2S) broadcastSetChange(from int) {
	l.setBroadcasts++
	l.env.BroadcastControl(from, nil)
}

// maybeBroadcastLoad broadcasts node n's load when LoadGossip says it is
// due: a live node whose load drifted by BroadcastDelta connections since
// its last broadcast, with none in flight.
func (l *L2S) maybeBroadcastLoad(n int) {
	if !l.env.Alive(n) || !l.gossip.Due(n, l.env.Load(n)) {
		return
	}
	l.loadBroadcasts++
	l.env.BroadcastControl(n, l.delivered[n])
}

// OnAssign implements policy.Distributor.
func (l *L2S) OnAssign(n int) { l.maybeBroadcastLoad(n) }

// OnComplete implements policy.Distributor.
func (l *L2S) OnComplete(n int, f policy.FileID) { l.maybeBroadcastLoad(n) }

// Stats summarizes L2S's control behavior.
type Stats struct {
	LoadBroadcasts uint64
	SetBroadcasts  uint64
	SetGrows       uint64
	SetShrinks     uint64
	SetSizes       map[int]int // histogram of current server-set sizes
	ReplicatedFrac float64     // fraction of files with more than one server
}

// Stats returns control-plane statistics.
func (l *L2S) Stats() Stats {
	sizes := make(map[int]int)
	replicated := 0
	l.sets.RangeSizes(func(size int) bool {
		sizes[size]++
		if size > 1 {
			replicated++
		}
		return true
	})
	var frac float64
	if l.sets.Len() > 0 {
		frac = float64(replicated) / float64(l.sets.Len())
	}
	return Stats{
		LoadBroadcasts: l.loadBroadcasts,
		SetBroadcasts:  l.setBroadcasts,
		SetGrows:       l.grows,
		SetShrinks:     l.shrinks,
		SetSizes:       sizes,
		ReplicatedFrac: frac,
	}
}

// ServerSet returns a copy of the current server set for a file, for tests;
// like Service, it panics for a file outside the table's census.
func (l *L2S) ServerSet(f policy.FileID) []int {
	nodes := l.sets.Nodes(l.sets.Rank(int32(f)))
	if nodes == nil {
		return nil
	}
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = int(n)
	}
	return out
}

var _ policy.Distributor = (*L2S)(nil)

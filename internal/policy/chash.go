package policy

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/spec"
)

// The chash family dispatches the way 2026-scale CDNs do: a consistent-hash
// ring with virtual nodes pins each file to an owner, and every decision is
// a local hash computation — no front-end, no broadcast load dissemination,
// zero control messages. Three registered names select the published
// presets:
//
//	chash          pure consistent hashing (the web-scale form of "hashing")
//	chash-bounded  consistent hashing with bounded loads: an owner above
//	               c x mean load spills to the next distinct ring successor
//	chash-d        power-of-d choices: hash to d candidate owners, take the
//	               least loaded (alias chash-d2)
//
// All tunables are reachable on any of the names via the spec grammar
// ("chash:vnodes=256,load=1.25,d=2"); the presets only change defaults.
// Ji/Quan/Tan (arXiv:1801.02436) prove the miss ratio of LRU behind
// consistent hashing is asymptotically that of one pooled LRU of the
// aggregate capacity — the conformance test in internal/server pins the
// simulator to that curve. The proximity bias follows Pourmiri et al.:
// among the d candidates, weight load by the line rate back to the
// arrival node.

// ChashOptions are the tunables of the consistent-hashing family. The zero
// value of each field selects that field's default at construction, so the
// three registered presets only fill what the caller left unset.
type ChashOptions struct {
	// VNodes is the number of ring points per unit of node capacity
	// (default 128). A node with weight w gets max(1, round(VNodes*w)).
	VNodes int
	// BoundC > 0 enables bounded loads with limit BoundC x mean load
	// (must exceed 1; chash-bounded defaults it to 1.25).
	BoundC float64
	// D > 1 enables power-of-d choices (chash-d defaults it to 2).
	D int
	// Proximity biases the d-choice pick by the per-pair line rate back to
	// the arrival node, when the environment can rate pairs (PairRater).
	Proximity bool
}

// Validate reports option errors. It expects defaults already applied, so
// zero VNodes or D is invalid here.
func (o ChashOptions) Validate() error {
	if o.VNodes < 1 || o.VNodes > 4096 {
		return fmt.Errorf("policy: chash vnodes %d outside [1, 4096]", o.VNodes)
	}
	if o.BoundC != 0 && (o.BoundC <= 1 || o.BoundC > 8) {
		return fmt.Errorf("policy: chash load factor %g outside (1, 8]", o.BoundC)
	}
	if o.D < 1 || o.D > 16 {
		return fmt.Errorf("policy: chash d %d outside [1, 16]", o.D)
	}
	return nil
}

// ringPoint is one virtual node on the ring: a node id at a hash position,
// the hash kept as two halves so a point is 12 pointer-free bytes, not 16; a
// 1024-node ring at the default density is 128k points (1.5 MB) built once
// per run.
type ringPoint struct {
	hi, lo uint32
	node   int32
}

func (pt ringPoint) hash() uint64 { return uint64(pt.hi)<<32 | uint64(pt.lo) }

// CHash is the consistent-hashing distributor. Connections arrive round
// robin (an L4 switch spraying an anycast VIP); Service walks the ring from
// the file's hash to its owner. The ring is a pure function of cluster size,
// capacity weights, and vnode density — independent of the run seed and of
// GOMAXPROCS, so two runs with the same cluster shape build byte-identical
// rings.
type CHash struct {
	env      Env
	rr       *RoundRobin
	name     string
	opts     ChashOptions
	ring     []ringPoint
	jump     []int32  // jump[p]: first ring index with hash prefix >= p
	shift    uint     // 64 minus the prefix length
	salts    []uint64 // per-choice key salts for power-of-d
	rates    PairRater
	inflight int // cluster-wide open connections, kept via OnAssign/OnComplete

	// visited/epoch dedupe distinct nodes during bounded spill walks
	// without clearing an array per request.
	visited []uint32
	epoch   uint32
}

// NewCHash builds a consistent-hash distributor. weights follows
// Options.Weights (nil = uniform); opts must already have defaults applied.
func NewCHash(name string, env Env, opts ChashOptions, weights []float64) *CHash {
	p := &CHash{
		env:     env,
		rr:      NewRoundRobin(env),
		name:    name,
		opts:    opts,
		ring:    buildRing(env.N(), opts.VNodes, weights),
		visited: make([]uint32, env.N()),
	}
	p.jump, p.shift = jumpTable(p.ring)
	p.salts = make([]uint64, opts.D)
	for j := range p.salts {
		// Salt 0 is the identity so d=1 degrades exactly to plain chash.
		if j > 0 {
			p.salts[j] = mix(0x713b1b2c4e5f6071 + uint64(j))
		}
	}
	if opts.Proximity {
		if pr, ok := env.(PairRater); ok {
			p.rates = pr
		}
	}
	return p
}

// buildRing places max(1, round(vnodes*w_i)) points per node and sorts them
// by (hash, node). The full ordering (not just hash) makes the ring
// deterministic even across hash collisions, and no map iteration or RNG is
// involved anywhere — determinism by construction.
func buildRing(n, vnodes int, weights []float64) []ringPoint {
	pts := make([]ringPoint, 0, n*vnodes)
	for i := 0; i < n; i++ {
		v := vnodes
		if weights != nil {
			v = max(int(math.Round(float64(vnodes)*weights[i])), 1)
		}
		for r := 0; r < v; r++ {
			h := pointHash(i, r)
			pts = append(pts, ringPoint{hi: uint32(h >> 32), lo: uint32(h), node: int32(i)})
		}
	}
	slices.SortFunc(pts, compareRingPoints)
	return pts
}

// compareRingPoints is the ring's total order: (hash, node). Two replicas
// of one node at one hash own the same files, so no replica number is kept.
func compareRingPoints(a, b ringPoint) int {
	return cmp.Or(cmp.Compare(a.hash(), b.hash()), cmp.Compare(a.node, b.node))
}

// pointHash positions virtual node (node, replica) on the ring — a pure
// function of the two ids, like production rings keyed on member identity.
func pointHash(node, replica int) uint64 {
	return mix(mix(uint64(node)+1) ^ (uint64(replica)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909))
}

// Name implements Distributor.
func (p *CHash) Name() string { return p.name }

// FrontEnd implements Distributor: no dedicated front-end.
func (p *CHash) FrontEnd() int { return -1 }

// Initial implements Distributor: round-robin arrival, like L2S.
func (p *CHash) Initial(f FileID) int { return p.rr.Next() }

// Service implements Distributor: the ring owner of f, adjusted by the
// enabled variant. If the whole cluster is down it falls back to initial
// (the simulator aborts the request).
func (p *CHash) Service(initial int, f FileID) int {
	var cand int
	switch {
	case p.opts.D > 1:
		cand = p.dChoice(initial, f)
	case p.opts.BoundC > 0:
		cand = p.bounded(p.ringIndex(mix(uint64(f))))
	default:
		cand, _ = p.aliveOwner(p.ringIndex(mix(uint64(f))))
	}
	if cand < 0 {
		return initial
	}
	return cand
}

// jumpTable indexes a sorted ring by hash prefix: jump[p] is the first
// ring index whose hash, shifted right by shift, is at least p. The prefix
// is the longest that keeps about four points per entry, a length that
// follows from the ring's alone, so the table costs a quarter of an int32
// per point.
func jumpTable(ring []ringPoint) ([]int32, uint) {
	k := max(bits.Len(uint(len(ring)/4))-1, 0)
	shift := uint(64 - k)
	jump := make([]int32, 1<<k)
	i := 0
	for pre := range jump {
		for i < len(ring) && ring[i].hash()>>shift < uint64(pre) {
			i++
		}
		jump[pre] = int32(i)
	}
	return jump, shift
}

// ringIndex returns the index of the first ring point at or clockwise of
// key. Every point before jump[key's prefix] hashes below key, and the one
// at jump[prefix+1] above it, so the scan from the first stops by the
// second, about four points on, where a binary search would have.
func (p *CHash) ringIndex(key uint64) int {
	ring := p.ring
	i := int(p.jump[key>>p.shift])
	for i < len(ring) && ring[i].hash() < key {
		i++
	}
	if i == len(ring) {
		i = 0
	}
	return i
}

// aliveOwner walks clockwise from ring index idx to the first live node and
// returns (node, pointsWalked), or (-1, 0) with no node alive.
func (p *CHash) aliveOwner(idx int) (int, int) {
	ring := p.ring
	for k := 0; k < len(ring); k++ {
		cand := int(ring[(idx+k)%len(ring)].node)
		if p.env.Alive(cand) {
			return cand, k
		}
	}
	return -1, 0
}

// bounded walks clockwise from idx over distinct live nodes and returns the
// first whose load stays under the bounded-load limit
// BoundC x (inflight+1)/N — the "consistent hashing with bounded loads"
// spill rule, with the mean taken over the nominal cluster size. When every
// live node is at the limit (the bound is infeasible this instant) it
// returns the least-loaded one seen, preserving work conservation.
func (p *CHash) bounded(idx int) int {
	limit := p.opts.BoundC * float64(p.inflight+1) / float64(p.env.N())
	p.bumpEpoch()
	ring := p.ring
	n := p.env.N()
	best, bestLoad, distinct := -1, math.Inf(1), 0
	for k := 0; k < len(ring) && distinct < n; k++ {
		cand := int(ring[(idx+k)%len(ring)].node)
		if p.visited[cand] == p.epoch {
			continue
		}
		p.visited[cand] = p.epoch
		distinct++
		if !p.env.Alive(cand) {
			continue
		}
		l := float64(p.env.Load(cand))
		if l < limit {
			return cand
		}
		if l < bestLoad {
			best, bestLoad = cand, l
		}
	}
	return best
}

// dChoice hashes f with d salts to d candidate owners and picks the
// best-scoring one: raw load, or load weighted by the inverse line rate
// back to the arrival node when proximity biasing is active (Pourmiri et
// al.'s proximity-aware d choices — on a homogeneous network the scores
// reduce to plain least-loaded). With bounded loads also enabled, an
// over-limit winner spills along the ring from its own position.
func (p *CHash) dChoice(initial int, f FileID) int {
	best, bestIdx := -1, 0
	bestScore := math.Inf(1)
	for j := 0; j < p.opts.D; j++ {
		idx := p.ringIndex(mix(uint64(f) ^ p.salts[j]))
		cand, walked := p.aliveOwner(idx)
		if cand < 0 {
			return -1 // nothing alive anywhere on the ring
		}
		score := float64(p.env.Load(cand) + 1)
		if p.rates != nil {
			score /= p.rates.PairRateKBps(initial, cand)
		}
		if score < bestScore {
			best, bestIdx, bestScore = cand, (idx+walked)%len(p.ring), score
		}
	}
	if p.opts.BoundC > 0 && best >= 0 {
		limit := p.opts.BoundC * float64(p.inflight+1) / float64(p.env.N())
		if float64(p.env.Load(best)) >= limit {
			return p.bounded(bestIdx)
		}
	}
	return best
}

// bumpEpoch advances the visited stamp, clearing the array on the (once
// per 4 billion requests) wraparound.
func (p *CHash) bumpEpoch() {
	p.epoch++
	if p.epoch == 0 {
		for i := range p.visited {
			p.visited[i] = 0
		}
		p.epoch = 1
	}
}

// OnAssign implements Distributor: track cluster-wide in-flight load for
// the bounded-load mean.
func (p *CHash) OnAssign(n int) { p.inflight++ }

// OnComplete implements Distributor.
func (p *CHash) OnComplete(n int, f FileID) { p.inflight-- }

// newCHashFactory builds the factory for one preset: defaults are applied,
// then the preset fills its signature knob only if the caller left it zero.
func newCHashFactory(name string, preset func(*ChashOptions)) Factory {
	return func(env Env, o Options) (Distributor, error) {
		co := o.Chash
		if co.VNodes == 0 {
			co.VNodes = 128
		}
		if co.D == 0 {
			co.D = 1
		}
		preset(&co)
		if err := co.Validate(); err != nil {
			return nil, err
		}
		return NewCHash(name, env, co, o.NodeWeights(env.N())), nil
	}
}

func init() {
	Register("chash", newCHashFactory("chash", func(*ChashOptions) {}))
	Register("chash-bounded", newCHashFactory("chash-bounded", func(c *ChashOptions) {
		if c.BoundC == 0 {
			c.BoundC = 1.25
		}
	}))
	Register("chash-d", newCHashFactory("chash-d", func(c *ChashOptions) {
		if c.D <= 1 {
			c.D = 2
		}
	}))
	RegisterAlias("chash-d2", "chash-d")

	for _, name := range []string{"chash", "chash-bounded", "chash-d"} {
		RegisterParams(name, chashParams()...)
	}
}

// chashParams declares the spec parameters shared by the whole chash
// family — every preset accepts every knob; names only change defaults.
func chashParams() []spec.Param[Options] {
	return []spec.Param[Options]{
		{Key: "vnodes", Kind: spec.Int, Min: 1, Max: 4096,
			Set: func(o *Options, v float64) { o.Chash.VNodes = int(v) }},
		{Key: "load", Kind: spec.Float, Min: 1, Max: 8, MinExcl: true,
			Set: func(o *Options, v float64) { o.Chash.BoundC = v }},
		{Key: "d", Kind: spec.Int, Min: 1, Max: 16,
			Set: func(o *Options, v float64) { o.Chash.D = int(v) }},
		{Key: "prox", Kind: spec.Bool,
			Set: func(o *Options, v float64) { o.Chash.Proximity = v != 0 }},
	}
}

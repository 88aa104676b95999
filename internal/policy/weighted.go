package policy

// Heterogeneity-aware policy variants. On a cluster with per-node hardware
// profiles, the simulator derives each node's relative capacity from the
// analytic model (server.Run fills Options.Weights, normalized to mean 1)
// and these variants compare load/weight instead of raw load: a node with
// twice the capacity is considered equally loaded at twice the
// connections. With nil weights every variant reduces exactly to its
// unweighted base, because each comparison divides by exactly 1.0.

// WLC is weighted least connections — the heterogeneity-aware form of the
// traditional server: an idealized layer-4 switch assigns every new
// connection to the live node minimizing load/weight, rotating among ties.
// Nothing is ever forwarded, so it isolates what capacity-aware assignment
// alone buys on a heterogeneous cluster.
type WLC struct {
	env     Env
	weights []float64
	next    int // rotating tie-break so simultaneous arrivals spread out
}

// NewWLC builds the weighted-least-connections policy. weights must have
// one entry per node (see Options.Weights); nil means uniform capacities,
// which makes WLC behave exactly like FewestConnections.
func NewWLC(env Env, weights []float64) *WLC {
	p := &WLC{env: env}
	if len(weights) == env.N() {
		p.weights = weights
	}
	return p
}

// Name implements Distributor.
func (p *WLC) Name() string { return "wlc" }

// FrontEnd implements Distributor: no dedicated front-end.
func (p *WLC) FrontEnd() int { return -1 }

func (p *WLC) weight(n int) float64 {
	if p.weights == nil {
		return 1
	}
	return p.weights[n]
}

// Initial assigns the connection to the live node with the lowest
// capacity-scaled load, rotating among ties.
func (p *WLC) Initial(f FileID) int {
	n := p.env.N()
	best := -1
	var bestLoad float64
	for i := 0; i < n; i++ {
		cand := (p.next + i) % n
		if !p.env.Alive(cand) {
			continue
		}
		if l := float64(p.env.Load(cand)) / p.weight(cand); best < 0 || l < bestLoad {
			best, bestLoad = cand, l
		}
	}
	if best < 0 {
		best = 0 // whole cluster down; the simulator aborts the request
	}
	p.next = (best + 1) % n
	return best
}

// Service implements Distributor: the initial node services the request.
func (p *WLC) Service(initial int, f FileID) int { return initial }

// OnAssign implements Distributor.
func (p *WLC) OnAssign(n int) {}

// OnComplete implements Distributor.
func (p *WLC) OnComplete(n int, f FileID) {}

func init() {
	Register("wlc", func(env Env, o Options) (Distributor, error) {
		return NewWLC(env, o.NodeWeights(env.N())), nil
	})
	Register("lard-weighted", func(env Env, o Options) (Distributor, error) {
		l := o.lard()
		if err := l.Validate(); err != nil {
			return nil, err
		}
		d := NewLARD(env, l, NewFileSets(o.Files, o.Requests))
		d.weights = o.NodeWeights(env.N())
		return d, nil
	})
	RegisterParams("lard-weighted", lardParams()...)
}

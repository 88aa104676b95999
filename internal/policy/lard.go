package policy

import "fmt"

// LARDOptions are the execution parameters of the LARD server. The defaults
// are the values determined by Pai et al. and reused by the paper ("we use
// the same execution parameters as determined by the designers of LARD").
type LARDOptions struct {
	TLow  int // a node below this load is considered lightly loaded (25)
	THigh int // a node above this load is considered overloaded (65)
	// ShrinkAfter is how long a replicated server set must stay unmodified
	// before it is shrunk (LARD/R's K, 20 s).
	ShrinkAfter float64
	// UpdateBatch is how many locally terminated connections a back-end
	// accumulates before refreshing its load at the front-end (Section 5.1
	// of the paper: 4).
	UpdateBatch int
	// Replication enables LARD/R's server sets; plain LARD keeps a single
	// server per target.
	Replication bool
}

// DefaultLARDOptions returns the published parameters with replication on.
func DefaultLARDOptions() LARDOptions {
	return LARDOptions{TLow: 25, THigh: 65, ShrinkAfter: 20, UpdateBatch: 4, Replication: true}
}

// Validate reports option errors.
func (o LARDOptions) Validate() error {
	if o.TLow <= 0 || o.THigh < o.TLow {
		return fmt.Errorf("policy: bad LARD thresholds %+v", o)
	}
	return nil
}

// LARD implements the Locality-Aware Request Distribution server of Pai et
// al. as simulated in the paper: node 0 is a dedicated front-end that
// accepts, parses, and hands off every request to a back-end chosen by the
// LARD (or LARD/R) algorithm. The front-end tracks back-end loads itself:
// it increments its view on every assignment and learns about completions
// through batched update messages from the back-ends.
//
// With a single node there is nothing to distribute: the node serves its
// own requests and no front-end exists.
type LARD struct {
	env  Env
	opts LARDOptions

	backends []int // ids of nodes that service requests
	feLoad   []int // front-end's view of each node's load
	pending  []int // completions not yet reported to the front-end
	updPool  []*lardUpdate

	// weights holds per-node relative capacities for the lard-weighted
	// variant: loads are compared as load/weight and the imbalance
	// thresholds scale to THigh*w_i / TLow*w_i, so a 2x node triggers
	// migration at twice the load. nil (plain LARD) behaves exactly as
	// published: every comparison divides by exactly 1.0.
	weights []float64

	sets     *FileSets
	assigned uint64
}

// NewLARD builds the LARD policy over a server-set table (NewFileSets).
func NewLARD(env Env, opts LARDOptions, sets *FileSets) *LARD {
	if err := opts.Validate(); err != nil {
		panic(err.Error())
	}
	n := env.N()
	var backends []int
	for i := 1; i < n; i++ {
		backends = append(backends, i)
	}
	if n == 1 {
		backends = []int{0}
	}
	return &LARD{
		env:      env,
		opts:     opts,
		backends: backends,
		feLoad:   make([]int, n),
		pending:  make([]int, n),
		sets:     sets,
	}
}

// Name implements Distributor.
func (l *LARD) Name() string {
	if l.weights != nil {
		return "lard-weighted"
	}
	if l.opts.Replication {
		return "lard"
	}
	return "lard-basic"
}

// weight returns node n's relative capacity (1 when unweighted).
func (l *LARD) weight(n int) float64 {
	if l.weights == nil {
		return 1
	}
	return l.weights[n]
}

// FrontEnd implements Distributor: node 0, unless the cluster has a single
// node.
func (l *LARD) FrontEnd() int {
	if l.env.N() == 1 {
		return -1
	}
	return 0
}

// Initial implements Distributor: every connection arrives at the
// front-end.
func (l *LARD) Initial(f FileID) int {
	if l.env.N() == 1 {
		return 0
	}
	return 0
}

// Service implements the LARD/R target-to-server-set mapping, executed at
// the front-end with its (slightly stale) view of back-end loads.
func (l *LARD) Service(initial int, f FileID) int {
	if l.env.N() == 1 {
		return 0
	}
	// Weighted comparisons: loads scale by 1/weight, thresholds stay
	// nominal — equivalent to per-node thresholds THigh*w_i / TLow*w_i.
	view := func(n int) float64 { return float64(l.feLoad[n]) / l.weight(n) }
	r := l.sets.Rank(int32(f))
	nodes := l.sets.Nodes(r)
	if len(nodes) == 0 || l.allDead(nodes) {
		n := argminScaled(l.env, l.backends, view)
		if n < 0 {
			return initial // cluster effectively down
		}
		l.sets.SetSingle(r, n)
		return n
	}
	n := l.leastLoadedMember(nodes, view)
	cheapest := argminScaled(l.env, l.backends, view)
	overloaded := view(n) > float64(l.opts.THigh) && cheapest >= 0 && view(cheapest) < float64(l.opts.TLow)
	if overloaded || view(n) >= float64(2*l.opts.THigh) {
		if cheapest >= 0 && cheapest != n {
			if l.opts.Replication {
				l.sets.Append(r, cheapest, l.env.Now())
			} else {
				l.sets.SetSingle(r, cheapest)
			}
			n = cheapest
		}
	}
	if l.opts.Replication {
		// Re-read: growth above stamps the modification time.
		nodes = l.sets.Nodes(r)
		if len(nodes) > 1 && l.env.Now()-l.sets.Modified(r) > l.opts.ShrinkAfter {
			l.removeMostLoaded(r, nodes, n, view)
		}
	}
	return n
}

func (l *LARD) allDead(nodes []int32) bool {
	for _, n := range nodes {
		if l.env.Alive(int(n)) {
			return false
		}
	}
	return true
}

func (l *LARD) leastLoadedMember(nodes []int32, view func(int) float64) int {
	if n := argminScaled32(l.env, nodes, view); n >= 0 {
		return n
	}
	return int(nodes[0])
}

func (l *LARD) removeMostLoaded(r int32, nodes []int32, keep int, view func(int) float64) {
	worst, at := -1, -1
	worstLoad := -1.0
	for i, n := range nodes {
		if int(n) == keep {
			continue
		}
		if load := view(int(n)); load > worstLoad {
			worst, worstLoad, at = int(n), load, i
		}
	}
	if worst >= 0 {
		l.sets.RemoveAt(r, at, l.env.Now())
	} else {
		l.sets.Touch(r, l.env.Now())
	}
}

// OnAssign implements Distributor: the front-end made the assignment, so
// its view updates immediately.
func (l *LARD) OnAssign(n int) {
	l.assigned++
	l.feLoad[n]++
}

// OnComplete implements Distributor: the back-end batches UpdateBatch
// completions, then reports them to the front-end in one control message.
func (l *LARD) OnComplete(n int, f FileID) {
	if l.env.N() == 1 {
		return
	}
	l.pending[n]++
	if l.pending[n] >= l.opts.UpdateBatch {
		u := l.getUpdate()
		u.n, u.count = n, l.pending[n]
		l.pending[n] = 0
		l.env.SendControl(n, 0, u.deliver)
	}
}

// lardUpdate is the pooled state of one in-flight load update: the reporting
// back-end and its batched completion count, with a single pre-bound deliver
// method value instead of a closure per update. An update the network drops
// (an endpoint failed) is never delivered and never returns to the pool.
type lardUpdate struct {
	l        *LARD
	n, count int
	deliver  func()
}

func (l *LARD) getUpdate() *lardUpdate {
	if n := len(l.updPool); n > 0 {
		u := l.updPool[n-1]
		l.updPool = l.updPool[:n-1]
		return u
	}
	u := &lardUpdate{l: l}
	u.deliver = u.apply
	return u
}

// apply lowers the front-end's view of the back-end by the reported count.
func (u *lardUpdate) apply() {
	l, n := u.l, u.n
	l.feLoad[n] -= u.count
	if l.feLoad[n] < 0 {
		l.feLoad[n] = 0
	}
	l.updPool = append(l.updPool, u)
}

// SetSizes returns the distribution of server-set sizes, for diagnostics
// and tests.
func (l *LARD) SetSizes() map[int]int {
	out := make(map[int]int)
	l.sets.RangeSizes(func(size int) bool {
		out[size]++
		return true
	})
	return out
}

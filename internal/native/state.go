package native

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// state is one node's replica of the cluster's distribution state: its
// view of every node's load (its own is authoritative, the others are the
// last gossiped values) and its replica of the per-file server sets.
// It applies the L2S rule of Section 4 (core.Decide) to them.
type state struct {
	mu    sync.Mutex
	self  int
	n     int
	files int          // catalogue size: file ids run over [0, files)
	opts  core.Options // ShrinkAfter in seconds of the injectable clock

	loads  []int           // loads[self] authoritative, others gossiped
	gossip core.LoadGossip // when this node announces its own load

	sets map[cache.FileID]*fileSet

	now func() time.Time // injectable clock for tests
}

type fileSet struct {
	nodes    []int
	modified time.Time
	version  uint64
}

// update renders the set as a gossipable full-state message.
func (f *fileSet) update(file cache.FileID) *SetUpdate {
	return &SetUpdate{File: file, Nodes: append([]int(nil), f.nodes...), Version: f.version}
}

func newState(self, n, files int, opts core.Options) *state {
	return &state{
		self:   self,
		n:      n,
		files:  files,
		opts:   opts,
		loads:  make([]int, n),
		gossip: core.NewLoadGossip(n, opts.BroadcastDelta),
		sets:   make(map[cache.FileID]*fileSet),
		now:    time.Now,
	}
}

// decide runs the L2S rule for a request for file f, given the set of
// currently live nodes: the node that must serve it, and the set change to
// gossip (nil when the set was untouched). What it adds to core.Decide is
// the replica's own bookkeeping: members this replica believes dead are
// evicted first, and every change bumps the set's version.
func (s *state) decide(f cache.FileID, alive func(int) bool) (svc int, changed *SetUpdate) {
	s.mu.Lock()
	defer s.mu.Unlock()

	set := s.sets[f]
	dirty := false
	var members []int
	if set != nil {
		// Repair: evict members this replica believes are dead, so traffic
		// stops flowing at crashed nodes and the change gossips outward.
		if kept := keepAlive(set.nodes, alive); len(kept) != len(set.nodes) {
			set.nodes = kept
			set.modified = s.now()
			set.version++
			dirty = true
		}
		members = set.nodes
	}

	d := core.Decide(members, s.self, s.n, s.opts.T, s.opts.LowT, s.load, alive, func() bool {
		return s.now().Sub(set.modified).Seconds() > s.opts.ShrinkAfter
	})
	switch d.Edit {
	case core.Keep:
		if !dirty {
			return d.Service, nil
		}
	case core.Reset:
		if set == nil {
			set = &fileSet{}
			s.sets[f] = set
		}
		set.nodes = []int{d.Service}
	case core.Grow:
		set.nodes = append(set.nodes, d.Service)
	case core.Shrink:
		if d.At >= 0 {
			set.nodes = append(set.nodes[:d.At], set.nodes[d.At+1:]...)
		}
	}
	if d.Edit != core.Keep {
		set.modified = s.now()
		set.version++
	}
	return d.Service, set.update(f)
}

// load is this replica's view of node n's load, as core.Decide reads it.
func (s *state) load(n int) float64 { return float64(s.loads[n]) }

// setLocalLoad records this node's own load and reports whether the node
// must announce it now (core.LoadGossip: drifted far enough, with no
// announcement in flight).
func (s *state) setLocalLoad(v int) (announce bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads[s.self] = v
	return s.gossip.Due(s.self, v)
}

// loadDelivered ends this node's load announcement in flight and reports
// the next one: the current load, if it drifted while the last travelled.
func (s *state) loadDelivered() (v int, announce bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gossip.Delivered(s.self)
	v = s.loads[s.self]
	return v, s.gossip.Due(s.self, v)
}

// applyLoad installs a gossiped load value for a peer.
func (s *state) applyLoad(node, load int) {
	if node < 0 || node >= s.n || node == s.self {
		return
	}
	s.mu.Lock()
	s.loads[node] = load
	s.mu.Unlock()
}

// applySet installs a gossiped server-set replica. Replicas carry a
// version; an incoming update wins only when its version is newer, or when
// versions tie and its member list orders strictly higher (a deterministic
// tie-break, so concurrent same-version writers converge on one value).
// An empty member list is a tombstone: the next decision for the file
// rebuilds the set at a higher version. An update naming a file outside the
// catalogue or a node outside the cluster is dropped.
func (s *state) applySet(u SetUpdate) {
	if u.File < 0 || int(u.File) >= s.files {
		return
	}
	for _, n := range u.Nodes {
		if n < 0 || n >= s.n {
			return
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.sets[u.File]; cur != nil {
		if u.Version < cur.version {
			return
		}
		if u.Version == cur.version && cmpNodes(u.Nodes, cur.nodes) <= 0 {
			return
		}
	}
	s.sets[u.File] = &fileSet{
		nodes:    append([]int(nil), u.Nodes...),
		modified: s.now(),
		version:  u.Version,
	}
}

// evictNode removes a (now dead) node from every server set, bumping each
// touched set's version so the repair wins over stale replicas elsewhere.
// It returns the surviving non-empty sets that changed, for gossiping.
func (s *state) evictNode(dead int) []SetUpdate {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []SetUpdate
	for f, set := range s.sets {
		kept := keepAlive(set.nodes, func(n int) bool { return n != dead })
		if len(kept) == len(set.nodes) {
			continue
		}
		set.nodes = kept
		set.modified = s.now()
		set.version++
		if len(kept) > 0 {
			out = append(out, *set.update(f))
		}
	}
	return out
}

// exportSets snapshots every server set for anti-entropy sync, tombstones
// (emptied sets awaiting a rebuild) included — a tombstone must propagate,
// or a replica holding one at a high version would reject peers' live sets
// forever while never sharing its own.
func (s *state) exportSets() []SetUpdate {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SetUpdate, 0, len(s.sets))
	for f, set := range s.sets {
		out = append(out, *set.update(f))
	}
	return out
}

// serverSet returns a copy of the replica's set for file f.
func (s *state) serverSet(f cache.FileID) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.sets[f]
	if set == nil {
		return nil
	}
	return append([]int(nil), set.nodes...)
}

// viewLoad returns this replica's view of a node's load.
func (s *state) viewLoad(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads[n]
}

// keepAlive filters a member list down to the nodes alive believes in; it
// returns the input slice unchanged when nothing was filtered.
func keepAlive(nodes []int, alive func(int) bool) []int {
	for i, n := range nodes {
		if !alive(n) {
			kept := append([]int(nil), nodes[:i]...)
			for _, m := range nodes[i+1:] {
				if alive(m) {
					kept = append(kept, m)
				}
			}
			return kept
		}
	}
	return nodes
}

// cmpNodes totally orders member lists (by length, then elementwise) so
// same-version replicas can tie-break deterministically.
func cmpNodes(a, b []int) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	return slices.Compare(a, b)
}

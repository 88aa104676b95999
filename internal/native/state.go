package native

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/policy"
)

// state is one node's replica of the cluster's distribution state: its
// view of every node's load (its own is authoritative, the others are the
// last gossiped values) and its replica of the per-file server sets.
// It applies the L2S rule of Section 4 (core.Decide) to them.
type state struct {
	mu   sync.Mutex
	self int
	n    int
	opts core.Options // ShrinkAfter in seconds of the injectable clock

	loads  []int           // loads[self] authoritative, others gossiped
	gossip core.LoadGossip // when this node announces its own load

	// sets is the simulator's server-set table over the whole catalogue
	// (rank = FileID), 2 B per file; versions[f] is file f's replica
	// version, and len(versions) the catalogue's size. A file with no set
	// and a version above 0 is a tombstone: an emptied set awaiting a
	// rebuild, which anti-entropy must still carry.
	sets     *policy.FileSets
	versions []uint64

	// The shrink clock is seconds since epoch, the float time FileSets
	// stamps; now is injectable for tests.
	epoch time.Time
	now   func() time.Time
}

func newState(self, n, files int, opts core.Options) *state {
	return &state{
		self:     self,
		n:        n,
		opts:     opts,
		loads:    make([]int, n),
		gossip:   core.NewLoadGossip(n, opts.BroadcastDelta),
		sets:     policy.NewFileSets(files, nil),
		versions: make([]uint64, files),
		epoch:    time.Now(),
		now:      time.Now,
	}
}

// clock is the shrink clock's reading.
func (s *state) clock() float64 { return s.now().Sub(s.epoch).Seconds() }

// decide runs the L2S rule for a request for file f, given the set of
// currently live nodes: the node that must serve it, and the set change to
// gossip (nil when the set was untouched). What it adds to core.Decide is
// the replica's own bookkeeping: members this replica believes dead are
// evicted first, and every change bumps the set's version.
func (s *state) decide(f cache.FileID, alive func(int) bool) (svc int, changed *SetUpdate) {
	s.mu.Lock()
	defer s.mu.Unlock()

	r := int32(f)
	dirty := false
	if members := s.sets.Nodes(r); members != nil {
		// Repair: evict members this replica believes are dead, so traffic
		// stops flowing at crashed nodes and the change gossips outward.
		if kept := keepAlive(members, alive); len(kept) != len(members) {
			install(s, r, kept)
			s.versions[f]++
			dirty = true
		}
	}

	d := core.Decide(s.sets.Nodes(r), s.self, s.n, s.opts.T, s.opts.LowT, s.load, alive, func() bool {
		return s.clock()-s.sets.Modified(r) > s.opts.ShrinkAfter
	})
	if d.Edit == core.Keep {
		if !dirty {
			return d.Service, nil
		}
	} else {
		d.Apply(s.sets, r, s.clock())
		s.versions[f]++
	}
	u := s.update(f)
	return d.Service, &u
}

// install makes nodes the set of the file of rank r, stamping now on a
// replicated one; no nodes clears it. nodes must not be a FileSets view.
func install[M int | int32](s *state, r int32, nodes []M) {
	if len(nodes) == 0 {
		s.sets.Clear(r)
		return
	}
	s.sets.SetSingle(r, int(nodes[0]))
	if len(nodes) > 1 {
		now := s.clock()
		for _, m := range nodes[1:] {
			s.sets.Append(r, int(m), now)
		}
	}
}

// update renders file f's set as a gossipable full-state message.
func (s *state) update(f cache.FileID) SetUpdate {
	var nodes []int
	if members := s.sets.Nodes(int32(f)); len(members) > 0 {
		nodes = make([]int, len(members))
		for i, m := range members {
			nodes[i] = int(m)
		}
	}
	return SetUpdate{File: f, Nodes: nodes, Version: s.versions[f]}
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
// catalogue, a node outside the cluster or one node twice is dropped.
func (s *state) applySet(u SetUpdate) {
	if u.File < 0 || int(u.File) >= len(s.versions) {
		return
	}
	for i, n := range u.Nodes {
		if n < 0 || n >= s.n || slices.Contains(u.Nodes[:i], n) {
			return
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := int32(u.File)
	if cur, v := s.sets.Nodes(r), s.versions[u.File]; cur != nil || v > 0 {
		if u.Version < v {
			return
		}
		if u.Version == v && cmpNodes(u.Nodes, cur) <= 0 {
			return
		}
	}
	install(s, r, u.Nodes)
	s.versions[u.File] = u.Version
}

// evictNode removes a (now dead) node from every server set, bumping each
// touched set's version so the repair wins over stale replicas elsewhere.
// It returns the surviving non-empty sets that changed, in FileID order,
// for gossiping.
func (s *state) evictNode(dead int) []SetUpdate {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []SetUpdate
	for f := range s.versions {
		r := int32(f)
		members := s.sets.Nodes(r)
		if !slices.Contains(members, int32(dead)) {
			continue
		}
		kept := keepAlive(members, func(n int) bool { return n != dead })
		install(s, r, kept)
		s.versions[f]++
		if len(kept) > 0 {
			out = append(out, s.update(cache.FileID(f)))
		}
	}
	return out
}

// exportSets snapshots every server set in FileID order for anti-entropy
// sync, tombstones (emptied sets awaiting a rebuild) included — a tombstone
// must propagate, or a replica holding one at a high version would reject
// peers' live sets forever while never sharing its own.
func (s *state) exportSets() []SetUpdate {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SetUpdate, 0, s.sets.Len())
	for f, v := range s.versions {
		if v > 0 || s.sets.Nodes(int32(f)) != nil {
			out = append(out, s.update(cache.FileID(f)))
		}
	}
	return out
}

// serverSet returns a copy of the replica's set for file f.
func (s *state) serverSet(f cache.FileID) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.update(f).Nodes
}

// viewLoad returns this replica's view of a node's load.
func (s *state) viewLoad(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads[n]
}

// keepAlive filters a member list down to the nodes alive believes in; it
// returns the input slice unchanged when nothing was filtered, and a new
// one otherwise.
func keepAlive[M int | int32](nodes []M, alive func(int) bool) []M {
	for i, n := range nodes {
		if !alive(int(n)) {
			kept := append([]M(nil), nodes[:i]...)
			for _, m := range nodes[i+1:] {
				if alive(int(m)) {
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
func cmpNodes(a []int, b []int32) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	for i, n := range a {
		if c := cmp.Compare(n, int(b[i])); c != 0 {
			return c
		}
	}
	return 0
}

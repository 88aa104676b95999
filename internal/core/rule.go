package core

import (
	"math"
	"slices"

	"repro/internal/policy"
)

// Edit is the server-set change a Decision makes; a request makes at most
// one.
type Edit uint8

const (
	Keep   Edit = iota // the set is unchanged
	Reset              // the set becomes {Service}: first request, or every member dead
	Grow               // Service joins the set, appended at the end
	Shrink             // the member at Decision.At leaves the set
)

// Decision is the L2S rule's answer for one request.
type Decision struct {
	Service int // node that serves the request
	Edit    Edit
	// At is the index of the member Shrink removes; -1 when no member other
	// than Service exists to remove, in which case the set only restamps
	// its modification time.
	At int
}

// Apply makes the decision's edit to the set of the file of rank r in sets,
// stamping now on a replicated set it changes: Reset makes the set
// {Service}, Grow appends Service, Shrink removes the member at At or, with
// At < 0, only restamps the set. Keep changes nothing. Both the simulator
// (L2S.Service) and the native replicas (native's state.decide) apply their
// decisions through it.
func (d Decision) Apply(sets *policy.FileSets, r int32, now float64) {
	switch d.Edit {
	case Reset:
		sets.SetSingle(r, d.Service)
	case Grow:
		sets.Append(r, d.Service, now)
	case Shrink:
		if d.At >= 0 {
			sets.RemoveAt(r, d.At, now)
		} else {
			sets.Touch(r, now)
		}
	}
}

// Decide is the L2S distribution rule of Section 4, the one both the
// simulator (L2S.Service) and the native cluster (native's state.decide)
// run. It is pure and clock-free: it reads the file's server set members in
// their order, the deciding node self among n nodes, the thresholds T and
// lowT, the decider's view of every node's load, its belief about who is
// alive, and asks stable — has the set been unmodified for longer than
// ShrinkAfter? — only when a shrink is otherwise due.
//
// Members are taken as given: dead ones are skipped, not removed. A
// decision that grows a set never also shrinks it, since growth restamps
// the set and ShrinkAfter >= 0.
func Decide[M int | int32](members []M, self, n, T, lowT int,
	load func(int) float64, alive func(int) bool, stable func() bool) Decision {
	overloaded := func(i int) bool { return load(i) > float64(T) }

	if !slices.ContainsFunc(members, func(m M) bool { return alive(int(m)) }) {
		// First request for this file (or all its servers crashed): the
		// deciding node takes it unless it is overloaded, in which case the
		// least-loaded node in the cluster does.
		svc := self
		if overloaded(self) || !alive(self) {
			if m := argmin(n, load, alive); m >= 0 {
				svc = m
			}
		}
		return Decision{Service: svc, Edit: Reset}
	}

	var svc int
	if slices.Contains(members, M(self)) && !overloaded(self) && alive(self) {
		// Serve locally: the file is (believed) cached here and we have
		// capacity.
		svc = self
	} else {
		// Forward to the least-loaded live member of the server set...
		svc = leastLoadedMember(members, load, alive)
		if overloaded(self) && overloaded(svc) {
			// ... unless everyone relevant is overloaded: grow the set with
			// the least-loaded node in the whole cluster.
			if m := argmin(n, load, alive); m >= 0 && !slices.Contains(members, M(m)) {
				return Decision{Service: m, Edit: Grow}
			}
		}
	}

	// Replication control: shrink a stable set whose chosen server is
	// underloaded by dropping its most loaded other member.
	if len(members) > 1 && load(svc) < float64(lowT) && stable() {
		return Decision{Service: svc, Edit: Shrink, At: mostLoadedOther(members, svc, load)}
	}
	return Decision{Service: svc}
}

// argmin returns the least-loaded live node of 0..n-1 (the first on ties),
// or -1 when none is alive.
func argmin(n int, load func(int) float64, alive func(int) bool) int {
	best, bestLoad := -1, math.Inf(1)
	for i := 0; i < n; i++ {
		if !alive(i) {
			continue
		}
		if v := load(i); v < bestLoad {
			best, bestLoad = i, v
		}
	}
	return best
}

// leastLoadedMember returns the least-loaded live member, falling back to
// the first member when none is alive.
func leastLoadedMember[M int | int32](members []M, load func(int) float64, alive func(int) bool) int {
	best, bestLoad := -1, math.Inf(1)
	for _, m := range members {
		if !alive(int(m)) {
			continue
		}
		if v := load(int(m)); v < bestLoad {
			best, bestLoad = int(m), v
		}
	}
	if best < 0 {
		return int(members[0])
	}
	return best
}

// mostLoadedOther returns the index of the most loaded member other than
// keep (the first on ties), or -1 when there is none.
func mostLoadedOther[M int | int32](members []M, keep int, load func(int) float64) int {
	at, worstLoad := -1, math.Inf(-1)
	for i, m := range members {
		if int(m) == keep {
			continue
		}
		if v := load(int(m)); v > worstLoad {
			at, worstLoad = i, v
		}
	}
	return at
}

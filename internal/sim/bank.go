package sim

import "fmt"

// ChargeBank defers fixed-size FCFS charges to a fleet of single-server
// resources, replacing one pointer-chase per charge (resource -> free slice
// -> busy field, a cache miss per receiver at 1024-node gossip fan-outs)
// with sequential arithmetic on two dense arrays.
//
// A deferred charge is the exact ChargeAt recurrence kept out of line:
// chain[i] = max(chain[i], at) + svc, where chain[i] mirrors what the
// resource's single-server free time would be after the charges booked so
// far. The resource itself is not touched until its next use — Acquire,
// ChargeAt, Utilization, BusyTime, or ResetStats — at which point the
// pending charges fold in (Resource.syncDeferred): free becomes the chain
// value, and busy replays one svc-sized addition per pending charge, in
// booking order. Because the fold always happens before any other read or
// write of free or busy, the interleaving of floating-point operations on
// the resource is exactly the eager sequence, so deferred and eager
// charging produce bit-identical simulations (pinned by
// TestChargeBankMatchesEager and, end to end, by TestFlatGolden in
// internal/server).
//
// Each resource belongs to at most one bank, and all charges through a bank
// cost the same service time — the per-message NI and CPU overheads of a
// broadcast fan-out, in the motivating use.
type ChargeBank struct {
	svc   Time
	res   []*Resource
	chain []Time   // finish time of the last pending charge; valid iff count > 0
	count []uint32 // pending charges not yet folded into the resource

	// Prepare, when set, runs before any flush or direct charge at slot i,
	// giving the bank's owner a chance to materialize charges it has been
	// tracking in some cheaper closed form (see FoldDeferred) — the gossip
	// epoch layer in internal/netsim tracks whole broadcast rounds without
	// touching per-node state and folds them here, lazily, when a node's
	// resources are next used. Prepare may call FoldDeferred and ChargeAt on
	// this bank but must not touch the resources themselves.
	Prepare func(i int32)

	// Ready, when set alongside Prepare, lets the owner mark slots whose
	// Prepare call would be a no-op: syncDeferred skips the call while
	// Ready[i] is true. The owner keeps the slice current — typically it is
	// the owner's own "already materialized" flag array, shared by
	// reference. Purely an optimization: skipping a vacuous Prepare cannot
	// change any charge.
	Ready []bool
}

// NewChargeBank builds a bank over the given single-server resources,
// charging svc seconds per deferred charge. It panics on a multi-server
// resource, a resource already in a bank, or a non-positive service time.
func NewChargeBank(svc Time, res []*Resource) *ChargeBank {
	if svc <= 0 {
		panic(fmt.Sprintf("sim: charge bank with non-positive service %v", svc))
	}
	b := &ChargeBank{
		svc:   svc,
		res:   res,
		chain: make([]Time, len(res)),
		count: make([]uint32, len(res)),
	}
	for i, r := range res {
		if len(r.free) != 1 {
			panic(fmt.Sprintf("sim: charge bank needs single-server resources, %q has %d", r.name, len(r.free)))
		}
		if r.bank != nil {
			panic(fmt.Sprintf("sim: resource %q already belongs to a charge bank", r.name))
		}
		r.bank, r.bankID = b, int32(i)
	}
	return b
}

// ChargeAt books one deferred svc-second charge at slot i, arriving at time
// at, and returns the finish time — exactly what res[i].ChargeAt(at, svc)
// would return, with the resource-state writes deferred to its next use.
func (b *ChargeBank) ChargeAt(i int, at Time) Time {
	if b.count[i] == 0 {
		b.chain[i] = b.res[i].free[0]
	}
	c := b.chain[i]
	if c < at {
		c = at
	}
	c += b.svc
	b.chain[i] = c
	b.count[i]++
	return c
}

// FoldDeferred books n deferred charges at slot i whose combined effect the
// caller already knows in closed form: the pending chain becomes chain and
// the pending count grows by n, without walking the intermediate per-charge
// recurrence. The caller owns the exactness obligation — chain must be
// bit-identical to what n successive ChargeAt calls would have left, which
// holds whenever each of the n charges is known to have arrived at or after
// the chain it extended (the charge then finishes at its own arrival plus
// svc, independent of history). The next flush replays the n busy additions
// exactly as if they had been booked individually.
func (b *ChargeBank) FoldDeferred(i int, chain Time, n uint32) {
	b.chain[i] = chain
	b.count[i] += n
}

// syncDeferred materializes any pending deferred charges into the resource.
// Every method that reads or writes free or busy calls this first, so a
// banked resource is indistinguishable from an eagerly charged one.
func (r *Resource) syncDeferred() {
	if b := r.bank; b != nil {
		if b.Prepare != nil && (b.Ready == nil || !b.Ready[r.bankID]) {
			b.Prepare(r.bankID)
		}
		if b.count[r.bankID] != 0 {
			r.flushDeferred()
		}
	}
}

// flushDeferred applies the pending charges: the single server's free time
// becomes the chain value, and busy advances by one svc-sized addition per
// charge — the same float additions, in the same order, that eager charging
// would have performed (there was no interleaving use of the resource, or
// the pending set would already have been flushed). The replay itself runs
// through addRepeated, which collapses the n identical additions to a
// handful of exact closed-form jumps: epoch-folded gossip rounds can leave
// millions of pending charges per node, and looping them would cost more
// than the charging they replace.
func (r *Resource) flushDeferred() {
	b := r.bank
	n := b.count[r.bankID]
	b.count[r.bankID] = 0
	r.free[0] = b.chain[r.bankID]
	r.busy = addRepeated(r.busy, b.svc, uint64(n))
}

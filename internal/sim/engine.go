// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate under the trace-driven cluster simulator of
// Section 5 of the paper: it owns the virtual clock, an event calendar
// ordered by (time, insertion sequence), and first-come-first-served
// resources with exact queueing and utilization accounting.
//
// The engine is single-threaded by design. Simulations of queueing systems
// need a total order over events to be reproducible, so all model code runs
// on the goroutine that calls Run, and two events scheduled for the same
// instant fire in the order they were scheduled.
//
// The calendar is allocation-free in steady state. Resource completions —
// the bulk of all events — are plain values carried inline in the calendar
// entries; cancellable callback events live in a pooled slot array reached
// through the entry's packed key, so scheduling and firing never touch the
// garbage collector once the pool has grown to the simulation's high-water
// mark. Event handles carry the scheduling sequence number, which keeps
// Cancel safe (a no-op) after the event has fired and its slot has been
// recycled.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Event is a cancellable handle to a scheduled callback. It is a small
// value; copying it copies the handle, not the event. The zero Event is
// inert: Cancel on it is a no-op.
type Event struct {
	eng  *Engine
	slot int32
	seq  uint64
}

// When returns the simulated time at which the event is scheduled to fire,
// or NaN if it already fired or was cancelled.
func (ev Event) When() Time {
	if ev.eng == nil || ev.eng.slots[ev.slot].seq != ev.seq {
		return math.NaN()
	}
	return ev.eng.slots[ev.slot].when
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired or was already cancelled is a no-op: the sequence number in the
// handle no longer matches the recycled slot's.
func (ev Event) Cancel() {
	if ev.eng == nil {
		return
	}
	s := &ev.eng.slots[ev.slot]
	if s.seq != ev.seq {
		return
	}
	ev.eng.pending--
	ev.eng.freeSlot(ev.slot)
}

// invalidSeq marks a free slot. push never assigns it (the sequence counter
// is bounded far below), so a freed slot matches no outstanding handle and
// no stale calendar entry.
const invalidSeq = ^uint64(0)

// eventSlot is pooled per-event state for cancellable callback events
// (Schedule/At). A slot is live between schedule and fire/cancel; seq holds
// the scheduling sequence number while live and invalidSeq while free,
// which invalidates stale handles and stale heap entries alike. Resource
// completions never take a slot — they ride inline in the calendar entry
// (see heapEntry).
//
// Releasing a slot deliberately leaves its fn pointer in place: a freed
// slot's callback is never invoked (the seq mismatch retires its entry
// first), and skipping the nil store keeps the release path free of GC
// write barriers. The pointer a retired slot pins is a pooled job or
// method-value callback of the model, which lives for the whole run anyway.
type eventSlot struct {
	when Time
	seq  uint64
	fn   func()
	next int32 // free-list link while the slot is free
}

// Calendar-key layout: seq in the high bits, slot index in the low bits.
// Comparing keys compares seq first, and seq is unique, so key order IS
// schedule order; the slot bits ride along for free. Completion entries
// carry no slot and leave the low bits zero — harmless, since seq alone
// decides every comparison.
const (
	slotBits = 20
	maxSlots = 1 << slotBits // 1M simultaneously pending events
	seqShift = slotBits
	maxSeq   = uint64(1)<<(64-seqShift) - 1 // ~1.7e13 schedulings per engine
)

// heapEntry is one calendar entry: the firing time, a packed key holding
// (sequence, slot), and — for resource completions, the overwhelming bulk
// of calendar traffic — the completion target carried inline. Inlining
// (res, done) costs sixteen extra bytes per entry but spares completions
// the pooled slot round-trip entirely: no slot allocate/free per job, and
// no random load into the slot array on every peek to check staleness
// (completions have no handle, so they can never be cancelled and are
// always live). Cancellable callback events keep res nil and reach their
// callback through the slot named in the key.
type heapEntry struct {
	when Time
	key  uint64
	res  *Resource // completion target, nil for callback events
	done func()    // completion callback (may be nil); unused for callback events
}

// before orders entries by (when, seq); the slot bits in the low end of
// the key never matter because seq alone is unique.
func (a heapEntry) before(b heapEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.key < b.key
}

func (en heapEntry) slot() int32      { return int32(en.key & (maxSlots - 1)) }
func (en heapEntry) entrySeq() uint64 { return en.key >> seqShift }

// probe is an observation hook that fires outside the event calendar (see
// Engine.Probe).
type probe struct {
	every Time
	next  Time
	fn    func(Time)
}

// stagedCap bounds the staging buffer in front of the heap. Sixteen
// entries (four cache lines) absorb the bursts of back-to-back near-term
// events the model produces (message hops, CPU chunks) with room to spare;
// larger buffers make the worst-case insertion shift exceed what they save.
const stagedCap = 16

// Engine is a discrete-event simulator: a clock plus an event calendar.
// The zero value is not usable; call NewEngine.
//
// The calendar is a binary heap fronted by a small sorted staging buffer
// (descending, so the minimum is its last element). New events
// insertion-sort into the buffer; a pop takes the smaller of the buffer's
// minimum and the heap root, so the fire order is still exactly minimal in
// (when, seq) — bit-identical to a pure heap by construction. The buffer
// pays off because of a strong property of queueing models: most scheduled
// events are near-term (a message hop a few microseconds out, a CPU chunk
// on an idle resource) while the heap holds far-out completions, so the
// freshly pushed event is very often the next to fire — it appends to the
// buffer with one comparison and pops from it with another, never paying a
// sift. Only events that linger long enough for the buffer to fill around
// them overflow into the heap, once.
type Engine struct {
	now     Time
	seq     uint64
	staged  [stagedCap]heapEntry // sorted descending: the minimum is last
	nstaged int
	heap    []heapEntry
	slots   []eventSlot
	free    int32 // head of the slot free list, -1 when empty
	pending int   // scheduled, uncancelled, unfired events
	fired   uint64
	probes  []probe
	// probeDue is the earliest next boundary of any probe, +Inf with none
	// registered: the per-event cost of probes is one float comparison.
	probeDue Time
}

// NewEngine returns an engine with the clock at zero and an empty calendar.
func NewEngine() *Engine {
	return &Engine{free: -1, probeDue: math.Inf(1)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but have not fired or been
// cancelled.
func (e *Engine) Pending() int { return e.pending }

// Schedule runs fn after delay units of simulated time. A negative delay is
// an error in the model; it panics rather than silently reordering history.
func (e *Engine) Schedule(delay Time, fn func()) Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: schedule with invalid delay %v at t=%v", delay, e.now))
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute simulated time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	slot := e.allocSlot()
	s := &e.slots[slot]
	s.when = t
	s.fn = fn
	seq := e.push(heapEntry{when: t, key: uint64(uint32(slot))})
	s.seq = seq
	return Event{eng: e, slot: slot, seq: seq}
}

// atCompletion schedules a resource-completion event: when it fires, r
// retires one job and then calls done. The pair rides inline in the
// calendar entry — no slot, no closure — so Resource.Acquire stays
// allocation-free and the completion never pays the slot pool's
// bookkeeping.
func (e *Engine) atCompletion(t Time, r *Resource, done func()) {
	e.push(heapEntry{when: t, res: r, done: done})
}

// allocSlot takes a slot from the free list, growing the pool if none is
// free.
func (e *Engine) allocSlot() int32 {
	if e.free >= 0 {
		slot := e.free
		e.free = e.slots[slot].next
		return slot
	}
	if len(e.slots) >= maxSlots {
		panic(fmt.Sprintf("sim: more than %d events pending", maxSlots))
	}
	e.slots = append(e.slots, eventSlot{next: -1, seq: invalidSeq})
	return int32(len(e.slots) - 1)
}

// freeSlot releases a slot back to the pool. Resetting seq invalidates
// every outstanding handle and heap entry that still names the slot. The
// callback pointers stay behind on purpose (see eventSlot): this function
// writes only scalars, so releasing an event costs no GC write barrier.
func (e *Engine) freeSlot(slot int32) {
	s := &e.slots[slot]
	s.seq = invalidSeq
	s.next = e.free
	e.free = slot
}

// push stages a calendar entry. The caller fills when, the low key bits
// (slot index for callback events, zero for completions), and any inline
// completion state; push assigns the sequence number and returns it.
func (e *Engine) push(en heapEntry) uint64 {
	seq := e.seq
	if seq > maxSeq {
		panic("sim: scheduling sequence numbers exhausted")
	}
	e.seq++
	e.pending++
	if e.nstaged == stagedCap {
		e.flushStaged()
	}
	en.key |= seq << seqShift
	// An entry due no earlier than the staged maximum goes straight to the
	// heap: it would only ride the buffer until the next flush anyway, and
	// filing it first means shifting every nearer entry out of its way. At
	// saturation most pushes are far-future queue-tail completions, so this
	// branch keeps the buffer holding near-term work. The buffer/heap split
	// is free to vary — peekLive takes the minimum of both — so any
	// partition yields the identical popped sequence.
	if e.nstaged > 0 && !en.before(e.staged[0]) {
		e.heap = append(e.heap, en)
		e.siftUp(len(e.heap) - 1)
		return seq
	}
	// Insertion-sort into the descending buffer. The common near-term push
	// is a new minimum, which lands at the end after a single failed
	// comparison.
	p := e.nstaged
	for p > 0 && e.staged[p-1].before(en) {
		e.staged[p] = e.staged[p-1]
		p--
	}
	e.staged[p] = en
	e.nstaged++
	return seq
}

// flushStaged spills the staging buffer into the heap. Entries that make
// it here are the long-lived ones; each pays its sift exactly once.
func (e *Engine) flushStaged() {
	for i := 0; i < e.nstaged; i++ {
		e.heap = append(e.heap, e.staged[i])
		e.siftUp(len(e.heap) - 1)
	}
	e.nstaged = 0
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	entry := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !entry.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = entry
}

// popMin removes and returns the root entry.
//
// The displaced last element is reinserted bottom-up (Wegener's heapsort
// refinement): the hole at the root first descends the min-child path with
// one comparison per level, then the element bubbles up from the leaf. The
// last element of a heap is almost always among its largest, so the upward
// phase usually ends immediately — about half the comparisons of the
// classic descent, which compares the element against both children at
// every level. The heap's shape after the pop can differ from the classic
// variant's, but every shape is a valid heap over the same strict total
// order (when, seq), so the sequence of popped minima — the only thing the
// simulation observes — is identical.
func (e *Engine) popMin() heapEntry {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	entry := h[last]
	e.heap = h[:last]
	if last == 0 {
		return top
	}
	h = h[:last]
	n := last
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !entry.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = entry
	return top
}

// peekLive returns the (when, seq)-minimal live calendar entry across the
// staging buffer and the heap, discarding stale entries (cancelled events,
// detected by the sequence mismatch against the slot) as it finds them.
// fromStaged reports where the entry lives — the buffer's minimum is its
// last element, the heap's is its root — so the caller can remove exactly
// that entry. ok is false when the calendar is empty.
func (e *Engine) peekLive() (fromStaged bool, entry heapEntry, ok bool) {
	for {
		has := false
		if len(e.heap) > 0 {
			entry = e.heap[0]
			has = true
		}
		fromStaged = false
		if e.nstaged > 0 {
			if s := e.staged[e.nstaged-1]; !has || s.before(entry) {
				entry = s
				fromStaged = true
				has = true
			}
		}
		if !has {
			return false, heapEntry{}, false
		}
		// Completions are always live: they carry no handle, so nothing can
		// cancel them. Only callback events need the slot staleness check.
		if entry.res != nil || e.slots[entry.slot()].seq == entry.entrySeq() {
			return fromStaged, entry, true
		}
		e.removeTop(fromStaged)
	}
}

// removeTop removes the calendar entry peekLive located: the buffer's
// minimum is shed by shrinking the buffer (it is sorted descending), the
// heap's by popping the root.
func (e *Engine) removeTop(fromStaged bool) {
	if fromStaged {
		e.nstaged--
		return
	}
	e.popMin()
}

// Probe registers an observation hook that fires whenever the clock
// crosses a multiple of every, with the time of the event that crossed the
// boundary. Probes run after the crossing event's callback, entirely
// outside the event calendar: they schedule nothing, allocate nothing, and
// leave the event sequence, Pending, and Fired counts untouched, so an
// instrumented run replays bit-identically to an uninstrumented one. A
// probe that lags several boundaries behind (sparse calendars) fires once,
// at the current time. Per event, disabled or between boundaries, probes
// cost one float comparison against the earliest pending boundary.
func (e *Engine) Probe(every Time, fn func(Time)) {
	if !(every > 0) || math.IsInf(every, 0) {
		panic(fmt.Sprintf("sim: probe interval must be positive and finite, got %v", every))
	}
	if fn == nil {
		panic("sim: probe needs a callback")
	}
	e.probes = append(e.probes, probe{every: every, next: e.now + every, fn: fn})
	e.probeDue = min(e.probeDue, e.now+every)
}

// runProbes fires every probe whose boundary the clock has reached and
// re-arms probeDue. Callers check e.now >= e.probeDue first.
func (e *Engine) runProbes() {
	for i := range e.probes {
		p := &e.probes[i]
		if p.next > e.now {
			continue
		}
		for p.next <= e.now {
			p.next += p.every
		}
		p.fn(e.now)
	}
	due := math.Inf(1)
	for i := range e.probes { // after the callbacks: one may have registered a probe
		due = min(due, e.probes[i].next)
	}
	e.probeDue = due
}

// Step fires the next event. It reports false when the calendar is empty.
func (e *Engine) Step() bool {
	fromStaged, entry, ok := e.peekLive()
	if !ok {
		return false
	}
	e.fire(fromStaged, entry)
	return true
}

// fire removes the entry peekLive located and runs its callback.
func (e *Engine) fire(fromStaged bool, entry heapEntry) {
	e.removeTop(fromStaged)
	if entry.when < e.now {
		panic("sim: time went backwards")
	}
	e.pending--
	e.now = entry.when
	e.fired++
	if entry.res != nil {
		entry.res.complete(entry.done)
	} else {
		// Copy the callback out and release the slot before invoking it: the
		// callback is free to schedule new events into the recycled slot.
		slot := entry.slot()
		fn := e.slots[slot].fn
		e.freeSlot(slot)
		fn()
	}
	if e.now >= e.probeDue {
		e.runProbes()
	}
}

// Run fires events until the calendar is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps at or before t, then advances the
// clock to t. Events scheduled for later instants remain pending.
func (e *Engine) RunUntil(t Time) {
	for {
		fromStaged, entry, ok := e.peekLive()
		if !ok || entry.when > t {
			break
		}
		e.fire(fromStaged, entry)
	}
	if t > e.now {
		e.now = t
		if e.now >= e.probeDue {
			e.runProbes()
		}
	}
}

// RunLimit fires at most n events; it reports how many actually fired.
func (e *Engine) RunLimit(n uint64) uint64 {
	var fired uint64
	for fired < n && e.Step() {
		fired++
	}
	return fired
}

// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate under the trace-driven cluster simulator of
// Section 5 of the paper: it owns the virtual clock, an event calendar
// ordered by (time, scheduling sequence), and first-come-first-served
// resources with exact queueing and utilization accounting.
//
// The engine is single-threaded by design. Simulations of queueing systems
// need a total order over events to be reproducible, so all model code runs
// on the goroutine that calls Run, and two events scheduled for the same
// instant fire in the order they were scheduled.
//
// Time starts at zero and only moves forward: an event is due no earlier
// than the clock reads when it is scheduled. The calendar is a radix heap
// that relies on exactly that (see Engine). It is allocation-free in
// steady state: an event's time and list link live in a pointer-free slot
// and its callback, or its resource and callback, in a payload beside it,
// and freed slots are reused, so once the calendar has grown to the
// simulation's peak depth scheduling and firing never touch the garbage
// collector. Events cannot be cancelled: once scheduled, an event fires. A
// model that needs to retract work checks its own state when the callback
// runs.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// slot is one pending event's key and list link: the bits of its firing
// time and the next slot in its bucket (or in the free list), -1 ending
// either. Keys and links are pointer-free, so the collector never scans
// them and moving an event between buckets takes no write barrier.
type slot struct {
	when uint64
	next int32
}

// payload is a slot's event: a resource completion carries its target in
// res and its callback (possibly nil) in done; a callback event leaves res
// nil and carries its callback in done.
type payload struct {
	res  *Resource
	done func()
}

// probe is an observation hook that fires outside the event calendar (see
// Engine.Probe).
type probe struct {
	every Time
	next  Time
	fn    func(Time)
}

// Engine is a discrete-event simulator: a clock plus an event calendar.
// The zero value is not usable; call NewEngine.
//
// The calendar is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan 1990)
// over the bits of the firing time. For non-negative times those bits
// order like the times themselves, and every event is due no earlier than
// the last one fired, which is what a radix heap needs. Bucket 0 holds the
// events due now, at the time of the last one fired; bucket b >= 1 those
// whose highest time bit differing from now's is bit b-1 (the sign bit
// never differs, so 64 buckets cover every time). A pop takes bucket 0's
// head; when bucket 0 is empty, the lowest non-empty bucket is found in an
// occupancy mask, its earliest time, kept per bucket as events are filed,
// becomes the clock's, and its events move down to the buckets they then
// belong to, the earliest into bucket 0. An event only ever moves down, so
// each moves at most 63 times, and a handful in practice.
//
// Buckets are FIFO lists, and a move walks a bucket in list order and
// appends to the (empty) lower buckets, so events due at one time stay in
// scheduling order: a pop yields exactly the (when, scheduling sequence)
// minimum without the sequence number ever being stored.
//
// The fields every push, pop and Step reads come first, so they share
// cache lines instead of sitting beyond the 768 bytes of bucket arrays.
type Engine struct {
	now   Time
	mask  uint64 // bit b set iff bucket b is non-empty
	free  int32  // first free slot, -1 with none
	fired uint64
	// probeDue is the earliest next boundary of any probe, +Inf with none
	// registered: the per-event cost of probes is one float comparison.
	probeDue Time
	slots    []slot    // slots[b].next heads bucket b; events fill slots 64 on
	pay      []payload // pay[i] is slot i's event
	probes   []probe
	tail     [64]int32  // last slot of each bucket, b itself when empty
	least    [64]uint64 // earliest time bits in each bucket, MaxUint64 if empty
}

// NewEngine returns an engine with the clock at zero and an empty calendar.
func NewEngine() *Engine {
	e := &Engine{slots: make([]slot, 64), pay: make([]payload, 64), free: -1, probeDue: math.Inf(1)}
	for b := range e.tail {
		e.slots[b].next = -1
		e.tail[b] = int32(b)
		e.least[b] = math.MaxUint64
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule runs fn after delay units of simulated time. A negative, NaN or
// infinite delay is an error in the model; it panics rather than silently
// reordering history or stopping the clock at infinity.
func (e *Engine) Schedule(delay Time, fn func()) {
	if !(delay >= 0 && delay <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: schedule with invalid delay %v at t=%v", delay, e.now))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute simulated time t, which must be finite and not in
// the past (an event fired at +Inf would turn the clock infinite and every
// rate over it to 0; a NaN compares false both ways and would turn it NaN).
func (e *Engine) At(t Time, fn func()) {
	if !(t >= e.now && t <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: schedule at invalid time %v (now %v)", t, e.now))
	}
	e.push(t, payload{done: fn})
}

// atCompletion schedules a resource-completion event: when it fires, r
// retires one job and then calls done. The pair rides in the event's
// payload, so Resource.Acquire stays allocation-free.
func (e *Engine) atCompletion(t Time, r *Resource, done func()) {
	e.push(t, payload{res: r, done: done})
}

// push files an event due at t >= now into its bucket. -0 is filed as +0,
// whose bits order with the other non-negative times.
func (e *Engine) push(t Time, p payload) {
	if t == 0 {
		t = 0
	}
	w := math.Float64bits(t)
	i := e.free
	if i >= 0 {
		e.free = e.slots[i].next
		e.slots[i].when, e.pay[i] = w, p
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{when: w})
		e.pay = append(e.pay, p)
	}
	e.file(i, bits.Len64(w^math.Float64bits(e.now)))
}

// file appends slot i to bucket b. The bucket's head slot stands in for
// the tail of an empty bucket, so filing takes no branch.
func (e *Engine) file(i int32, b int) {
	e.slots[i].next = -1
	e.slots[e.tail[b]].next = i
	e.tail[b] = i
	e.least[b] = min(e.least[b], e.slots[i].when)
	e.mask |= 1 << b
}

// pop removes the event first in (when, scheduling order), frees its slot
// and returns its time and payload. ok is false when the calendar is empty.
func (e *Engine) pop() (t Time, p payload, ok bool) {
	i := e.slots[0].next
	if i < 0 {
		if e.mask == 0 {
			return 0, payload{}, false
		}
		i = e.refill()
	}
	s := &e.slots[i]
	e.slots[0].next = s.next
	if s.next < 0 {
		e.tail[0] = 0
		e.mask &^= 1
	}
	s.next = e.free
	e.free = i
	return math.Float64frombits(s.when), e.pay[i], true
}

// refill empties the lowest non-empty bucket into the ones below it,
// relative to its earliest time, which the pop that called it makes the
// clock, and returns bucket 0's new head. Every bucket below the emptied
// one was empty, so the appends keep each bucket in scheduling order.
func (e *Engine) refill() int32 {
	b := bits.TrailingZeros64(e.mask)
	last := e.least[b]
	i := e.slots[b].next
	e.slots[b].next, e.tail[b], e.least[b] = -1, int32(b), math.MaxUint64
	e.mask &^= 1 << b
	for i >= 0 {
		next := e.slots[i].next
		e.file(i, bits.Len64(e.slots[i].when^last))
		i = next
	}
	return e.slots[0].next
}

// Probe registers an observation hook that fires whenever the clock
// crosses a multiple of every, with the time of the event that crossed the
// boundary. Probes run after the crossing event's callback, entirely
// outside the event calendar: they schedule nothing, allocate nothing, and
// leave the event sequence and the Fired count untouched, so an
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
// re-arms probeDue. Step checks e.now >= e.probeDue first.
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
	t, p, ok := e.pop()
	if !ok {
		return false
	}
	e.now = t
	e.fired++
	if p.res != nil {
		p.res.complete(p.done)
	} else {
		p.done()
	}
	if e.now >= e.probeDue {
		e.runProbes()
	}
	return true
}

// Run fires events until the calendar is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

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
// The calendar is allocation-free in steady state. Every event — resource
// completions, the bulk of all events, and plain callbacks alike — is a
// value carried inline in its calendar entry, so scheduling and firing never
// touch the garbage collector once the calendar has grown to the
// simulation's high-water mark. Events cannot be cancelled: once scheduled,
// an event fires. A model that needs to retract work checks its own state
// when the callback runs.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// heapEntry is one calendar entry: the firing time, the scheduling sequence
// number that breaks ties, and the event itself. A resource completion
// carries its target in res and its callback (possibly nil) in done; a
// callback event leaves res nil and carries its callback in done.
type heapEntry struct {
	when Time
	seq  uint64
	res  *Resource // completion target, nil for callback events
	done func()
}

// before orders entries by (when, seq); seq is unique, so the order is
// total.
func (a heapEntry) before(b heapEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

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
	fired   uint64
	probes  []probe
	// probeDue is the earliest next boundary of any probe, +Inf with none
	// registered: the per-event cost of probes is one float comparison.
	probeDue Time
}

// NewEngine returns an engine with the clock at zero and an empty calendar.
func NewEngine() *Engine {
	return &Engine{probeDue: math.Inf(1)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule runs fn after delay units of simulated time. A negative delay is
// an error in the model; it panics rather than silently reordering history.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: schedule with invalid delay %v at t=%v", delay, e.now))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute simulated time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.push(heapEntry{when: t, done: fn})
}

// atCompletion schedules a resource-completion event: when it fires, r
// retires one job and then calls done. The pair rides inline in the
// calendar entry, so Resource.Acquire stays allocation-free.
func (e *Engine) atCompletion(t Time, r *Resource, done func()) {
	e.push(heapEntry{when: t, res: r, done: done})
}

// push files a calendar entry under the next sequence number.
func (e *Engine) push(en heapEntry) {
	en.seq = e.seq
	e.seq++
	if e.nstaged == stagedCap {
		e.flushStaged()
	}
	// An entry due no earlier than the staged maximum goes straight to the
	// heap: it would only ride the buffer until the next flush anyway, and
	// filing it first means shifting every nearer entry out of its way. At
	// saturation most pushes are far-future queue-tail completions, so this
	// branch keeps the buffer holding near-term work. The buffer/heap split
	// is free to vary — pop takes the minimum of both — so any partition
	// yields the identical popped sequence.
	if e.nstaged > 0 && !en.before(e.staged[0]) {
		e.heap = append(e.heap, en)
		e.siftUp(len(e.heap) - 1)
		return
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

// pop removes and returns the (when, seq)-minimal calendar entry: the
// smaller of the staging buffer's minimum (its last element) and the heap
// root. ok is false when the calendar is empty.
func (e *Engine) pop() (entry heapEntry, ok bool) {
	if e.nstaged > 0 && (len(e.heap) == 0 || e.staged[e.nstaged-1].before(e.heap[0])) {
		e.nstaged--
		return e.staged[e.nstaged], true
	}
	if len(e.heap) == 0 {
		return heapEntry{}, false
	}
	return e.popMin(), true
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
	entry, ok := e.pop()
	if !ok {
		return false
	}
	if entry.when < e.now {
		panic("sim: time went backwards")
	}
	e.now = entry.when
	e.fired++
	if entry.res != nil {
		entry.res.complete(entry.done)
	} else {
		entry.done()
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

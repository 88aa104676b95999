package sim

import "fmt"

// Resource is a first-come-first-served service center with one or more
// identical servers and an unbounded queue, the building block for the
// M/M/1-style service centers of the paper's Figure 2 (CPU, disk, network
// interfaces, router).
//
// Acquire is non-blocking: it enqueues a job with a known service demand and
// invokes the completion callback when the job finishes. Because service is
// FCFS and demands are known at arrival, the resource tracks only the time
// each server next becomes free, which is both exact and allocation-light.
type Resource struct {
	eng  *Engine
	name string

	free  []Time  // next-free time per server, kept as a sorted-min loop (k is tiny)
	free1 [1]Time // in-struct backing for the single-server common case, so
	// free[0] shares the resource's cache lines instead of costing a
	// dependent miss on every acquire, charge, and completion

	// Statistics.
	busy      Time   // total service time accrued (per-server seconds)
	completed uint64 // jobs completed
	inSystem  int    // jobs queued or in service
	epoch     Time   // start of the current measurement interval

	// Deferred-charge membership (see ChargeBank): nil for the common
	// eagerly charged resource. Every free/busy access syncs first.
	bank   *ChargeBank
	bankID int32
}

// NewResource returns a FCFS resource with the given number of identical
// servers (usually 1).
func NewResource(eng *Engine, name string, servers int) *Resource {
	if servers < 1 {
		panic(fmt.Sprintf("sim: resource %q needs at least one server", name))
	}
	r := &Resource{eng: eng, name: name}
	if servers == 1 {
		r.free = r.free1[:]
	} else {
		r.free = make([]Time, servers)
	}
	return r
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Acquire enqueues a job that needs service seconds of work and calls done
// (if non-nil) when the job completes. It returns the completion time.
func (r *Resource) Acquire(service Time, done func()) Time {
	if !(service >= 0) {
		panic(fmt.Sprintf("sim: resource %q acquire with invalid service %v", r.name, service))
	}
	r.syncDeferred()
	now := r.eng.Now()
	r.inSystem++

	// Pick the server that frees up first.
	best := 0
	for i := 1; i < len(r.free); i++ {
		if r.free[i] < r.free[best] {
			best = i
		}
	}
	start := r.free[best]
	if start < now {
		start = now
	}
	finish := start + service
	r.free[best] = finish
	r.busy += service

	// A completion event carries (r, done) in its calendar payload rather
	// than in a closure, so Acquire itself never allocates.
	r.eng.atCompletion(finish, r, done)
	return finish
}

// ChargeAt books service seconds of FCFS work arriving at time at — which
// may lie in the simulated past or future — without scheduling a completion
// event. The job starts when the earliest-free server is free or at `at`,
// whichever is later, exactly as a same-instant Acquire would; busy time and
// the per-server free times advance identically. It returns the finish time.
//
// This is the arithmetic half of batched fan-out: a broadcast charges each
// endpoint's resources with ChargeAt and schedules one event at the
// latest finish, instead of one completion event per endpoint per stage.
// Because no event fires, the charge is invisible to the queue-length
// statistics (InSystem, Completed) — callers that batch trade those
// per-message samples for the O(1) event count, but utilization and busy
// time stay exact.
func (r *Resource) ChargeAt(at, service Time) Time {
	if !(service >= 0) {
		panic(fmt.Sprintf("sim: resource %q charge with invalid service %v", r.name, service))
	}
	r.syncDeferred()
	best := 0
	for i := 1; i < len(r.free); i++ {
		if r.free[i] < r.free[best] {
			best = i
		}
	}
	start := r.free[best]
	if start < at {
		start = at
	}
	finish := start + service
	r.free[best] = finish
	r.busy += service
	return finish
}

// complete retires one job when its completion event fires.
func (r *Resource) complete(done func()) {
	r.inSystem--
	r.completed++
	if done != nil {
		done()
	}
}

// Utilization returns the fraction of capacity used over [0, now]: accrued
// service time divided by elapsed time times the number of servers.
func (r *Resource) Utilization() float64 {
	r.syncDeferred()
	elapsed := r.eng.Now() - r.epoch
	if elapsed <= 0 {
		return 0
	}
	return float64(r.busy) / (float64(elapsed) * float64(len(r.free)))
}

// BusyTime returns the total service time accrued across all servers.
func (r *Resource) BusyTime() Time {
	r.syncDeferred()
	return r.busy
}

// Completed returns the number of jobs that finished service.
func (r *Resource) Completed() uint64 { return r.completed }

// InSystem returns the number of jobs queued or in service right now.
func (r *Resource) InSystem() int { return r.inSystem }

// ResetStats zeroes the counters while preserving in-flight work, so that a
// measurement interval can start after cache warm-up.
func (r *Resource) ResetStats() {
	r.syncDeferred()
	now := r.eng.Now()
	// Busy time already committed for queued jobs extends past now; keep the
	// portion that lies in the future so utilization stays exact.
	var future Time
	for _, f := range r.free {
		if f > now {
			future += f - now
		}
	}
	r.busy = future
	r.completed = 0
	r.epoch = now
}

package sim

import (
	"math/rand"
	"testing"
)

// The stress tests exercise the calendar the way the cluster simulator
// does — dense schedule/fire interleavings, callbacks that schedule more
// events — and assert the engine's core contracts: total (time, seq) order
// and exact Fired accounting.

// TestStressScheduleFire drives randomized interleavings of scheduling and
// firing, and checks that fired events come out in nondecreasing time order
// with schedule order breaking ties, and that Fired agrees with an
// independent count at every step.
func TestStressScheduleFire(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()

		type scheduled struct {
			when  Time
			order int // schedule order, the tie-break within one instant
			fired bool
		}
		var all []*scheduled
		firedSeq := make([]*scheduled, 0, 256)
		live := 0

		for step := 0; step < 600; step++ {
			if rng.Intn(10) < 6 { // schedule
				s := &scheduled{when: e.Now() + rng.Float64()*10, order: len(all)}
				e.At(s.when, func() { s.fired = true; firedSeq = append(firedSeq, s) })
				all = append(all, s)
				live++
				continue
			}
			before := e.Fired()
			if e.Step() {
				if e.Fired() != before+1 {
					t.Fatalf("seed %d: Fired went %d -> %d in one Step", seed, before, e.Fired())
				}
				live--
			} else if live != 0 {
				t.Fatalf("seed %d: Step()=false with %d live events", seed, live)
			}
			if int(e.Fired()) != len(firedSeq) {
				t.Fatalf("seed %d step %d: Fired()=%d, observed %d callbacks",
					seed, step, e.Fired(), len(firedSeq))
			}
		}
		e.Run()

		// Every event fired exactly once.
		for i, s := range all {
			if !s.fired {
				t.Fatalf("seed %d: event %d never fired", seed, i)
			}
		}
		if got := int(e.Fired()); got != len(all) || len(firedSeq) != len(all) {
			t.Fatalf("seed %d: engine Fired()=%d, observed %d callbacks, scheduled %d",
				seed, got, len(firedSeq), len(all))
		}

		// Total (time, schedule-order) order over the fired sequence.
		for i := 1; i < len(firedSeq); i++ {
			a, b := firedSeq[i-1], firedSeq[i]
			if a.when > b.when {
				t.Fatalf("seed %d: fired out of time order: %v then %v", seed, a.when, b.when)
			}
			if a.when == b.when && a.order > b.order {
				t.Fatalf("seed %d: tie at t=%v fired out of schedule order (%d before %d)",
					seed, a.when, a.order, b.order)
			}
		}
	}
}

// TestStressNestedReschedule drives self-rescheduling callbacks with a
// random fan-out (the message-hop pattern), under the race detector when
// enabled, and checks the clock never runs backwards and every scheduled
// event fires.
func TestStressNestedReschedule(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var last Time
		scheduled, fired := 1, 0
		var tick func()
		tick = func() {
			if e.Now() < last {
				t.Fatalf("seed %d: clock went backwards %v -> %v", seed, last, e.Now())
			}
			last = e.Now()
			fired++
			if fired >= 5000 {
				return
			}
			for k := rng.Intn(3); k > 0; k-- {
				e.Schedule(rng.Float64(), tick)
				scheduled++
			}
		}
		e.Schedule(0, tick)
		e.Run()
		if fired != scheduled || int(e.Fired()) != fired {
			t.Fatalf("seed %d: scheduled %d, callbacks %d, Fired()=%d", seed, scheduled, fired, e.Fired())
		}
	}
}

// TestMillionPendingEvents holds 2^20+1 callback events pending at once —
// one past the limit of the slot pool the calendar used to keep — and
// checks they fire in (when, seq) order. The events fall into 65537 tie
// groups of up to 16 members, visited in a scrambled time order; a
// member's callback knows only its position in its group, which is enough
// to catch any inversion within a tie.
func TestMillionPendingEvents(t *testing.T) {
	const (
		n      = 1<<20 + 1
		groups = 65537 // prime, so i -> i*a mod groups permutes each round
	)
	e := NewEngine()
	last, want, fired := Time(-1), 0, 0
	member := make([]func(), n/groups+1)
	for pos := range member {
		member[pos] = func() {
			if now := e.Now(); now != last {
				if now < last {
					t.Fatalf("time went backwards: %v after %v", now, last)
				}
				last, want = now, 0
			}
			if pos != want {
				t.Fatalf("t=%v: member %d fired, want %d", last, pos, want)
			}
			want++
			fired++
		}
	}
	for i := 0; i < n; i++ {
		e.At(Time(i*40503%groups), member[i/groups])
	}
	e.Run()
	if fired != n || e.Fired() != n {
		t.Fatalf("fired %d callbacks, Fired()=%d, want %d", fired, e.Fired(), n)
	}
}

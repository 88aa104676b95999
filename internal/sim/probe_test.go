package sim

import (
	"math"
	"testing"
)

// TestProbeFiresOnBoundaries: a probe samples after the first event at or
// past each multiple of its interval, and a long gap collapses to one
// firing.
func TestProbeFiresOnBoundaries(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Probe(1.0, func(now Time) { times = append(times, now) })
	for _, at := range []Time{0.5, 0.9, 1.1, 1.2, 2.0, 5.5} {
		e.At(at, func() {})
	}
	e.Run()
	// Boundaries crossed: 1.0 (by the event at 1.1), 2.0 (event at 2.0),
	// 3,4,5 all collapsed into the event at 5.5.
	want := []Time{1.1, 2.0, 5.5}
	if len(times) != len(want) {
		t.Fatalf("probe fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("probe fired at %v, want %v", times, want)
		}
	}
}

// TestProbeDoesNotPerturbEngine: registering a probe changes no observable
// engine state — same event count, same clock.
func TestProbeDoesNotPerturbEngine(t *testing.T) {
	run := func(withProbe bool) (fired uint64, now Time) {
		e := NewEngine()
		if withProbe {
			e.Probe(0.25, func(Time) {})
		}
		var rec func()
		n := 0
		rec = func() {
			n++
			if n < 50 {
				e.Schedule(0.1, rec)
			}
		}
		e.Schedule(0, rec)
		e.Run()
		return e.Fired(), e.Now()
	}
	f0, t0 := run(false)
	f1, t1 := run(true)
	if f0 != f1 || t0 != t1 {
		t.Fatalf("probe perturbed the engine: fired %d vs %d, now %v vs %v", f0, f1, t0, t1)
	}
}

// TestProbeSeesPostEventState: the probe observes state after the crossing
// event's callback ran.
func TestProbeSeesPostEventState(t *testing.T) {
	e := NewEngine()
	state := 0
	var seen []int
	e.Probe(1.0, func(Time) { seen = append(seen, state) })
	e.At(1.0, func() { state = 1 })
	e.At(2.0, func() { state = 2 })
	e.Run()
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("probe saw %v, want [1 2]", seen)
	}
}

func TestProbePanics(t *testing.T) {
	e := NewEngine()
	for _, iv := range []Time{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Probe(%v) did not panic", iv)
				}
			}()
			e.Probe(iv, func(Time) {})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("Probe with nil fn did not panic")
			}
		}()
		e.Probe(1, nil)
	}()
}

// TestSchedulePanicsOnInvalidTime: At refuses a time in the past, NaN or
// +Inf, and Schedule a negative, NaN or +Inf delay or one that overflows
// the clock, before anything enters the calendar.
func TestSchedulePanicsOnInvalidTime(t *testing.T) {
	e := NewEngine()
	e.At(2, func() {})
	e.Run()
	mustPanic := func(what string, schedule func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		schedule()
	}
	mustPanic("At(NaN)", func() { e.At(math.NaN(), func() {}) })
	mustPanic("At(1) at now 2", func() { e.At(1, func() {}) })
	mustPanic("Schedule(NaN)", func() { e.Schedule(math.NaN(), func() {}) })
	mustPanic("Schedule(-1)", func() { e.Schedule(-1, func() {}) })
	mustPanic("At(+Inf)", func() { e.At(math.Inf(1), func() {}) })
	mustPanic("Schedule(+Inf)", func() { e.Schedule(math.Inf(1), func() {}) })
	if e.Step() || e.Now() != 2 {
		t.Errorf("a refused schedule entered the calendar: clock at %v, want 2", e.Now())
	}

	e = NewEngine()
	e.At(1e308, func() {})
	e.Run()
	mustPanic("Schedule(1e308) at now 1e308", func() { e.Schedule(1e308, func() {}) }) // sums to +Inf
	if e.Step() || e.Now() != 1e308 {
		t.Errorf("an overflowing schedule entered the calendar: clock at %v, want 1e308", e.Now())
	}
}

// TestSignedZeroFiresInScheduleOrder: -0 and +0 are one instant. An
// At(-0) / At(+0) pair at t = 0, in either order, fires in schedule order
// and leaves the clock at +0.
func TestSignedZeroFiresInScheduleOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, pair := range [][2]Time{{negZero, 0}, {0, negZero}} {
		e := NewEngine()
		var got []int
		for i, at := range pair {
			e.At(at, func() { got = append(got, i) })
		}
		e.Run()
		if len(got) != 2 || got[0] != 0 || got[1] != 1 || math.Signbit(e.Now()) {
			t.Errorf("At(%v), At(%v): fired %v, clock %v; want [0 1] at +0", pair[0], pair[1], got, e.Now())
		}
	}
}

// TestProbeAllocFree: steady-state probe dispatch must not allocate (the
// zero-cost requirement extends to the enabled path's dispatch machinery;
// what the callback itself does is the caller's business).
func TestProbeAllocFree(t *testing.T) {
	e := NewEngine()
	var fired int
	e.Probe(1, func(Time) { fired++ })
	tick := func() {}
	next := Time(1)
	allocs := testing.AllocsPerRun(100, func() {
		e.At(next, tick)
		e.Step()
		next++
	})
	// Allow the calendar to have warmed up: after the first iterations
	// nothing may allocate.
	if allocs > 0 {
		t.Fatalf("probe dispatch allocates %v per event", allocs)
	}
	if fired == 0 {
		t.Fatalf("probe never fired")
	}
}

// ungatedProbes is the dispatch loop the engine ran before it kept the
// earliest boundary: after every clock advance, walk every probe.
type ungatedProbes struct {
	every, next []Time
	fn          func(probe int, now Time)
}

func (u *ungatedProbes) add(now, every Time) {
	u.every, u.next = append(u.every, every), append(u.next, now+every)
}

func (u *ungatedProbes) advance(now Time) {
	for i := range u.next {
		if u.next[i] > now {
			continue
		}
		for u.next[i] <= now {
			u.next[i] += u.every[i]
		}
		u.fn(i, now)
	}
}

// TestProbeGateFiresSameCalls: gating dispatch on the earliest boundary
// must leave every callback at exactly the same event with the same t. Two
// probes with incommensurate periods and one registered mid-run by a
// callback, driven by Step and then by Run; then the same with a probe
// whose period is far below the event spacing (it lags many boundaries,
// fires once per event and holds the gate open).
func TestProbeGateFiresSameCalls(t *testing.T) {
	for _, periods := range [][]Time{
		{1, math.Sqrt2 / 3, 2.5},
		{1, math.Sqrt2 / 3, 0.001, 2.5},
	} {
		type call struct {
			probe int
			at    Time
		}
		var got, want []call
		e := NewEngine()
		ref := ungatedProbes{}
		last := len(periods) - 1 // this probe's first call registers one more
		ref.fn = func(probe int, now Time) {
			want = append(want, call{probe, now})
			if probe == last && len(ref.next) == len(periods) {
				ref.add(now, 0.05)
			}
		}
		var register func(every Time)
		register = func(every Time) {
			probe := len(e.probes)
			e.Probe(every, func(now Time) {
				got = append(got, call{probe, now})
				if probe == last && len(e.probes) == len(periods) {
					register(0.05) // earlier than every pending boundary
				}
			})
		}
		for _, every := range periods {
			register(every)
			ref.add(0, every)
		}

		// Irregular event times: some share a timestamp, some are far apart.
		var times []Time
		for i, at := 0, Time(0); i < 400; i++ {
			at += Time(i%7) * 0.013 * Time(1+i%3)
			if i%50 == 49 {
				at += 3.3
			}
			times = append(times, at)
			e.At(at, func() {})
		}
		for i := 0; i < len(times)/2; i++ {
			e.Step()
		}
		e.Run() // the other half
		for _, now := range times {
			ref.advance(now)
		}

		if len(got) != len(want) {
			t.Fatalf("periods %v: gated engine made %d probe calls, ungated loop %d", periods, len(got), len(want))
		}
		calls := map[int]int{}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("periods %v: call %d: gated %+v, ungated %+v", periods, i, got[i], want[i])
			}
			calls[want[i].probe]++
		}
		if len(calls) != len(periods)+1 {
			t.Fatalf("periods %v: not every probe fired: calls per probe %v", periods, calls)
		}
	}
}

package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestPropertyFireOrderExact hammers the calendar with a randomized mix of
// duplicate-time callback events, resource completions at the same tied
// times, and nested scheduling, and checks the fire sequence is exactly
// minimal in (when, scheduling sequence): nondecreasing times, and
// schedule order within every tie. This is the
// property the radix heap's FIFO buckets must keep — any bug in moving
// events between buckets, or between the two entry kinds, shows up as an
// inversion.
func TestPropertyFireOrderExact(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()

		type fired struct {
			when Time
			ord  int
		}
		var got []fired
		ord := 0 // global schedule order, incremented per schedule

		// times come from a tiny discrete set so ties are the common case,
		// not the exception.
		times := []Time{0, 1e-6, 1e-6, 5e-6, 1e-3, 1e-3, 0.5}

		// ord increments on every Schedule or Acquire call, in the order the
		// engine sees them — including nested ones issued from callbacks —
		// so it is exactly the engine's scheduling sequence. An Acquire on a
		// fresh single-server resource completes exactly delay from now,
		// the same instant a Schedule with that delay fires.
		var schedule func(depth int)
		schedule = func(depth int) {
			delay := times[rng.Intn(len(times))]
			myOrd := ord
			ord++
			fn := func() {
				got = append(got, fired{when: e.Now(), ord: myOrd})
				if depth < 3 && rng.Intn(4) == 0 {
					schedule(depth + 1)
				}
			}
			if rng.Intn(2) == 0 {
				NewResource(e, "r", 1).Acquire(delay, fn)
			} else {
				e.Schedule(delay, fn)
			}
		}
		for i := 0; i < 2000; i++ {
			schedule(0)
		}
		e.Run()

		if len(got) != ord || int(e.Fired()) != ord {
			t.Fatalf("seed %d: scheduled %d, fired %d callbacks, Fired()=%d", seed, ord, len(got), e.Fired())
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if b.when < a.when {
				t.Fatalf("seed %d: time went backwards at %d: %v after %v", seed, i, b.when, a.when)
			}
			if b.when == a.when && b.ord < a.ord {
				t.Fatalf("seed %d: tie-break inversion at %d: ord %d fired after %d at t=%v",
					seed, i, a.ord, b.ord, b.when)
			}
		}
	}
}

// TestSameInstantBurst files a burst of events at one instant: some while
// the clock is still far from it, so they sit in a high bucket and move
// down together, some from a callback at an earlier time, and some from
// callbacks firing at the instant itself, straight into bucket 0. All must
// fire in schedule order.
func TestSameInstantBurst(t *testing.T) {
	e := NewEngine()
	const n = 1000
	var got []int
	ord := 0
	var add func()
	add = func() {
		i := ord
		ord++
		e.At(1, func() {
			got = append(got, i)
			if i%7 == 0 && ord < 2*n {
				add()
			}
		})
	}
	for i := 0; i < n/2; i++ {
		add()
	}
	e.At(0.5, func() {
		for i := 0; i < n/2; i++ {
			add()
		}
	})
	e.Run()
	if len(got) != ord || e.Now() != 1 {
		t.Fatalf("fired %d of %d, clock at %v", len(got), ord, e.Now())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("burst broke schedule order: got[%d]=%d", i, v)
		}
	}
}

// FuzzCalendarOrder decodes bytes into a schedule — At and Schedule calls,
// Acquire and ChargeAt on one to three resources, Steps between them, and
// more of all of these from inside callbacks — over a small set of delays
// with ties, ±0 and a subnormal, plus raw float bits that the engine must
// refuse unless they are a valid time. The fire order must be the (when,
// scheduling sequence) sort of everything filed, and Fired, Completed and
// InSystem must agree with counts kept beside the engine at every event.
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{2, 0, 1, 0, 1, 0, 1, 0, 1, 7, 1, 7, 0, 7, 5, 2, 2, 2, 5, 0, 5})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, 500)
		rng.Read(b)
		f.Add(b)
	}
	negZero := math.Copysign(0, -1)
	delays := []Time{negZero, 0, 0, 5e-324, 1e-6, 1e-6, 5e-6, 1e-3, 0.5, 1, 1e6}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		e := NewEngine()
		res := make([]*Resource, 1+int(next())%3)
		for i := range res {
			res[i] = NewResource(e, "r", 1+int(next())%2)
		}
		type event struct {
			when Time
			res  int // -1 for a callback event
		}
		var filed []event
		var fired []int
		acquired := make([]int, len(res))
		completed := make([]int, len(res))
		check := func(where string) {
			t.Helper()
			if e.Fired() != uint64(len(fired)) {
				t.Fatalf("%s: Fired() = %d, %d callbacks ran", where, e.Fired(), len(fired))
			}
			for i, r := range res {
				if r.Completed() != uint64(completed[i]) || r.InSystem() != acquired[i]-completed[i] {
					t.Fatalf("%s: resource %d Completed %d InSystem %d, want %d and %d",
						where, i, r.Completed(), r.InSystem(), completed[i], acquired[i]-completed[i])
				}
			}
		}

		var op func(top bool)
		callback := func(id int) func() {
			return func() {
				ev := filed[id]
				if e.Now() != ev.when {
					t.Fatalf("event %d fired at %v, filed for %v", id, e.Now(), ev.when)
				}
				fired = append(fired, id)
				if ev.res >= 0 {
					completed[ev.res]++
				}
				check("callback")
				for n := next() % 3; n > 0; n-- {
					op(false)
				}
			}
		}
		op = func(top bool) {
			b := next()
			d := delays[int(b>>3)%len(delays)]
			k := int(b>>3) % len(res)
			switch b % 8 {
			case 0, 1: // At: -0 itself while the clock reads 0
				at := e.Now() + d
				if math.Signbit(d) && e.Now() == 0 {
					at = d
				}
				filed = append(filed, event{at, -1})
				e.At(at, callback(len(filed)-1))
			case 2, 3:
				filed = append(filed, event{e.Now() + d, -1})
				e.Schedule(d, callback(len(filed)-1))
			case 4:
				filed = append(filed, event{0, k})
				acquired[k]++
				filed[len(filed)-1].when = res[k].Acquire(d, callback(len(filed)-1))
			case 5: // a charge in the past or the future moves later Acquires
				res[k].ChargeAt(e.Now()*float64(next())/128, d)
			case 6: // raw bits: filed only if a valid time
				var u uint64
				for i := 0; i < 8; i++ {
					u = u<<8 | uint64(next())
				}
				at := math.Float64frombits(u)
				if at >= e.Now() && at <= math.MaxFloat64 {
					filed = append(filed, event{at, -1})
					e.At(at, callback(len(filed)-1))
					return
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("At(%v) at now %v did not panic", at, e.Now())
						}
					}()
					e.At(at, func() { t.Fatalf("refused At(%v) fired", at) })
				}()
			case 7:
				if top {
					e.Step()
					check("step")
				}
			}
		}
		for len(data) > 0 {
			op(true)
		}
		e.Run()
		check("end")

		want := make([]int, len(filed))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return filed[want[i]].when < filed[want[j]].when })
		if len(fired) != len(want) {
			t.Fatalf("fired %d of %d filed events", len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("fire %d: event %d (t=%v), want event %d (t=%v)",
					i, fired[i], filed[fired[i]].when, want[i], filed[want[i]].when)
			}
		}
	})
}

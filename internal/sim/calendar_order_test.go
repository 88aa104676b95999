package sim

import (
	"math/rand"
	"testing"
)

// TestPropertyFireOrderExact hammers the split calendar (staging buffer +
// heap) with a randomized mix of duplicate-time callback events, resource
// completions at the same tied times, and nested scheduling, and checks the
// fire sequence is exactly minimal in (when, scheduling sequence):
// nondecreasing times, and schedule order within every tie. This is the
// property that makes the buffer invisible — any interleaving bug between
// the two structures, or between the two entry kinds, shows up as an
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

// TestStagingOverflow forces the staging buffer to spill into the heap —
// more same-time events than stagedCap — and checks schedule order
// survives the flush.
func TestStagingOverflow(t *testing.T) {
	e := NewEngine()
	const n = stagedCap*3 + 5
	var got []int
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != n {
		t.Fatalf("fired %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("flush broke tie order: got[%d]=%d", i, v)
		}
	}
}

package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", e.Fired())
	}
}

func TestScheduleFiresInOrder(t *testing.T) {
	e := NewEngine()
	var got []float64
	for _, d := range []float64{3, 1, 2, 1.5} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []float64{1, 1.5, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order %v, want ascending schedule order", got)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestAtInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v, want [1 2]", times)
	}
}

// Property: events always fire in nondecreasing time order, regardless of
// the order and values of the scheduled delays.
func TestPropertyMonotonicClock(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []float64
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			e.Schedule(rng.Float64()*100, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == count
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving nested schedules preserves the monotonic clock.
func TestPropertyNestedMonotonicClock(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ok := true
		last := -1.0
		var spawn func(depth int)
		spawn = func(depth int) {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if depth <= 0 {
				return
			}
			k := rng.Intn(3)
			for i := 0; i < k; i++ {
				e.Schedule(rng.Float64(), func() { spawn(depth - 1) })
			}
		}
		e.Schedule(0, func() { spawn(6) })
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

package core

import "testing"

// TestDecideAsksStabilityLazily pins the kernel's contract with its
// wrappers: the stability question is asked only when a shrink is otherwise
// due, and never on a decision that grows the set.
func TestDecideAsksStabilityLazily(t *testing.T) {
	loads := []float64{25, 3, 25, 0}
	load := func(n int) float64 { return loads[n] }
	alive := func(int) bool { return true }
	asked := false
	stable := func() bool { asked = true; return true }

	// Initial node 0 and member 2 overloaded: node 3 joins, no shrink.
	d := Decide([]int{2}, 0, 4, 20, 10, load, alive, stable)
	if d != (Decision{Service: 3, Edit: Grow}) || asked {
		t.Fatalf("grow: got %+v, stability asked = %v", d, asked)
	}
	// A one-member set cannot shrink: no question either.
	if d = Decide([]int{1}, 1, 4, 20, 10, load, alive, stable); d != (Decision{Service: 1}) || asked {
		t.Fatalf("local: got %+v, stability asked = %v", d, asked)
	}
	// An underloaded server of a replicated set asks, and drops the most
	// loaded other member (index 0, node 2).
	d = Decide([]int{2, 1, 3}, 1, 4, 20, 10, load, alive, stable)
	if d != (Decision{Service: 1, Edit: Shrink, At: 0}) || !asked {
		t.Fatalf("shrink: got %+v, stability asked = %v", d, asked)
	}
}

// TestDecideShrinkWithoutVictim covers the fallback both wrappers keep: a
// set whose other members all equal the server has nothing to remove, and
// the decision only restamps it (At = -1).
func TestDecideShrinkWithoutVictim(t *testing.T) {
	load := func(int) float64 { return 0 }
	alive := func(int) bool { return true }
	d := Decide([]int32{1, 1}, 1, 2, 20, 10, load, alive, func() bool { return true })
	if d != (Decision{Service: 1, Edit: Shrink, At: -1}) {
		t.Fatalf("got %+v, want a shrink with no victim", d)
	}
}

package core

import "testing"

// TestLoadGossip walks the broadcast-on-drift rule through its edges: a
// drift one short of delta is not due and one at delta is, in either
// direction; nothing is due while an announcement is in flight; Delivered
// returns the announced value, not the current one; nodes are independent.
func TestLoadGossip(t *testing.T) {
	g := NewLoadGossip(2, 4)
	steps := []struct {
		node, load int
		due        bool
	}{
		{0, 3, false}, // drift 3 < 4
		{0, -3, false},
		{0, 4, true},  // drift 4: announce 4
		{0, 9, false}, // in flight
		{1, 4, true},  // node 1 has its own baseline and guard
	}
	for i, s := range steps {
		if got := g.Due(s.node, s.load); got != s.due {
			t.Fatalf("step %d: Due(%d, %d) = %v, want %v", i, s.node, s.load, got, s.due)
		}
	}
	if got := g.Delivered(0); got != 4 {
		t.Fatalf("Delivered(0) = %d, want the announced 4", got)
	}
	after := []struct {
		load int
		due  bool
	}{
		{7, false}, // drift 3 from 4
		{1, false}, // drift -3
		{0, true},  // drift -4: announce 0
		{8, false}, // in flight again
	}
	for i, s := range after {
		if got := g.Due(0, s.load); got != s.due {
			t.Fatalf("after delivery, step %d: Due(0, %d) = %v, want %v", i, s.load, got, s.due)
		}
	}
	if got := g.Delivered(0); got != 0 {
		t.Fatalf("Delivered(0) = %d, want the announced 0", got)
	}
	if got := g.Delivered(1); got != 4 {
		t.Fatalf("Delivered(1) = %d, want the announced 4", got)
	}
	if g.Due(1, 4) {
		t.Fatal("Due(1, 4) right after announcing 4: no drift, want false")
	}
}

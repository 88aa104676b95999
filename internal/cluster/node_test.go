package cluster

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestNodeConnectionAccounting(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 3, 1<<20)
	if n.ID != 3 || n.Load() != 0 {
		t.Fatalf("fresh node: id=%d load=%d", n.ID, n.Load())
	}
	n.AddConnection()
	n.AddConnection()
	if n.Load() != 2 {
		t.Fatalf("Load = %d, want 2", n.Load())
	}
	n.RemoveConnection()
	if n.Load() != 1 {
		t.Fatalf("Load = %d, want 1", n.Load())
	}
}

func TestNodeRemoveWithoutAddPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveConnection on idle node did not panic")
		}
	}()
	n.RemoveConnection()
}

func TestNodeMeanLoad(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, 1<<20)
	// Load 1 over [0,10), load 3 over [10,20).
	n.AddConnection()
	eng.Schedule(10, func() { n.AddConnection(); n.AddConnection() })
	eng.Schedule(20, func() {})
	eng.Run()
	if got := n.MeanLoad(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("MeanLoad = %v, want 2", got)
	}
}

func TestNodeCPUIdle(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, 1<<20)
	n.CPU.Acquire(4, nil)
	eng.Schedule(10, func() {})
	eng.Run()
	if got := n.CPUIdle(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("CPUIdle = %v, want 0.6", got)
	}
}

func TestNodeFail(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, 1<<20)
	if n.Failed() {
		t.Fatal("fresh node must be alive")
	}
	n.Fail()
	if !n.Failed() {
		t.Fatal("Fail() did not mark the node")
	}
}

func TestNodeResetStats(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, 1<<20)
	n.Cache.Access(1, 100)
	n.CPU.Acquire(1, nil)
	eng.Run()
	n.AddConnection()
	n.ResetStats()
	if n.Cache.Stats().Total != 0 {
		t.Fatal("ResetStats must clear cache stats")
	}
	if !n.Cache.Contains(1) {
		t.Fatal("ResetStats must keep cache contents")
	}
	if n.Load() != 1 {
		t.Fatal("ResetStats must keep open connections")
	}
}

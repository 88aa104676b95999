package core

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/policy/policytest"
)

// TestWeightedL2SScalesOverloadThreshold: with capacity weights, a fast
// node's overload threshold is effectively T*w, so a load that makes
// plain L2S deflect a first request is still "not overloaded" for the
// weighted variant.
func TestWeightedL2SScalesOverloadThreshold(t *testing.T) {
	mkEnv := func() *policytest.Env {
		env := policytest.New(2)
		env.Loads = []int{30, 0} // node 0 above T=20, below 4*T
		return env
	}

	weighted := New(mkEnv(), DefaultOptions(), policy.NewFileSets(64, nil))
	weighted.weights = []float64{4, 1}
	if weighted.Name() != "l2s-weighted" {
		t.Fatalf("Name = %q", weighted.Name())
	}
	if got := weighted.Service(0, 7); got != 0 {
		t.Fatalf("weighted Service = %d, want the 4x initial node 0", got)
	}

	plain := New(mkEnv(), DefaultOptions(), policy.NewFileSets(64, nil))
	if got := plain.Service(0, 7); got != 1 {
		t.Fatalf("plain Service = %d, want deflection to idle node 1", got)
	}
}

// TestWeightedL2SNilWeightsIsPlainL2S: the weighted variant without
// weights must be byte-for-byte the published algorithm (the golden
// equivalence test checks this end to end; here we check the name and a
// decision).
func TestWeightedL2SNilWeightsIsPlainL2S(t *testing.T) {
	env := policytest.New(3)
	l, err := policy.MustParseSpec("l2s-weighted").Build(env, policy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "l2s" {
		t.Fatalf("Name = %q, want l2s for nil weights", l.Name())
	}
	env.Loads = []int{30, 2, 5}
	if got := l.Service(0, 7); got != 1 {
		t.Fatalf("Service = %d, want least-loaded node 1", got)
	}
}

// TestWeightedL2SRegistered: the registry builds the weighted variant
// from Options.Weights and rejects bad tunables like plain l2s.
func TestWeightedL2SRegistered(t *testing.T) {
	env := policytest.New(4)
	d, err := policy.MustParseSpec("l2s-weighted").Build(env, policy.Options{Weights: []float64{2, 1, 0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "l2s-weighted" {
		t.Errorf("Name = %q", d.Name())
	}
	_, err = policy.MustParseSpec("l2s-weighted").Build(env, policy.Options{L2S: Options{T: -1, BroadcastDelta: 1}})
	if err == nil {
		t.Error("invalid thresholds accepted")
	}
}

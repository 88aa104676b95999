package policy_test

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/policy/policytest"
)

func TestWLCPrefersHigherCapacityAtEqualLoad(t *testing.T) {
	env := policytest.New(3)
	env.Loads = []int{4, 4, 4}
	p := policy.NewWLC(env, []float64{0.5, 2, 0.5})
	// Equal raw loads: scaled load 4/w is lowest at the 2x node.
	if got := p.Initial(0); got != 1 {
		t.Fatalf("Initial = %d, want the 2x node 1", got)
	}
	// The 2x node is "full" once its scaled load exceeds the others'.
	env.Loads = []int{4, 17, 4}
	if got := p.Initial(0); got == 1 {
		t.Fatalf("Initial picked the overloaded 2x node")
	}
}

func TestWLCWithoutWeightsMatchesFewestConnections(t *testing.T) {
	mk := func() (*policy.WLC, *policy.FewestConnections, *policytest.Env, *policytest.Env) {
		a, b := policytest.New(4), policytest.New(4)
		return policy.NewWLC(a, nil), policy.NewFewestConnections(b), a, b
	}
	wlc, fc, envA, envB := mk()
	loads := [][]int{
		{0, 0, 0, 0}, {3, 1, 2, 1}, {5, 5, 5, 5}, {2, 9, 0, 4}, {1, 1, 0, 0},
	}
	for step, l := range loads {
		copy(envA.Loads, l)
		copy(envB.Loads, l)
		if a, b := wlc.Initial(0), fc.Initial(0); a != b {
			t.Fatalf("step %d: wlc=%d fewest-connections=%d, want identical with nil weights", step, a, b)
		}
	}
}

func TestWLCSkipsDeadNodes(t *testing.T) {
	env := policytest.New(3)
	env.Dead[1] = true
	p := policy.NewWLC(env, []float64{1, 100, 1})
	for i := 0; i < 4; i++ {
		if got := p.Initial(0); got == 1 {
			t.Fatalf("assigned to a dead node")
		}
	}
}

func TestWLCRejectsWrongSizeWeights(t *testing.T) {
	env := policytest.New(3)
	env.Loads = []int{1, 0, 1}
	p := policy.NewWLC(env, []float64{1, 100}) // wrong length: ignored
	if got := p.Initial(0); got != 1 {
		t.Fatalf("Initial = %d, want plain least-loaded node 1", got)
	}
}

func TestWeightedLARDScalesThresholds(t *testing.T) {
	env := policytest.New(3)
	opts := policy.DefaultLARDOptions()
	// Node 2 has 4x capacity: its effective THigh is 4*65.
	l, err := policy.MustParseSpec("lard-weighted").Build(env, policy.Options{LARD: opts, Weights: []float64{1, 1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "lard-weighted" {
		t.Fatalf("Name = %q", l.Name())
	}

	// First request for file 9 goes to the backend with the lowest scaled
	// load: node 2 at load 80 (scaled 20) still beats node 1 at load 30.
	env.Loads = []int{0, 30, 80}
	for n, ld := range env.Loads {
		for i := 0; i < ld; i++ {
			l.OnAssign(n)
		}
	}
	if got := l.Service(0, 9); got != 2 {
		t.Fatalf("Service = %d, want the high-capacity node 2", got)
	}

	// Plain LARD with the same loads picks node 1 — the weighting is what
	// changed the decision.
	env2 := policytest.New(3)
	env2.Loads = env.Loads
	plain := policy.NewLARD(env2, opts, policy.NewFileSets(64, nil))
	for n, ld := range env2.Loads {
		for i := 0; i < ld; i++ {
			plain.OnAssign(n)
		}
	}
	if got := plain.Service(0, 9); got != 1 {
		t.Fatalf("plain Service = %d, want least-loaded node 1", got)
	}
}

func TestWeightedPoliciesRegistered(t *testing.T) {
	for _, name := range []string{"wlc", "lard-weighted"} {
		env := policytest.New(4)
		d, err := policy.MustParseSpec(name).Build(env, policy.Options{Weights: []float64{2, 1, 0.5, 0.5}})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if d.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, d.Name())
		}
	}
	// Without weights the registered variants still construct and degrade
	// to their unweighted bases (wlc keeps its own name; lard-weighted
	// reports the base algorithm it degraded to).
	d, err := policy.New(policy.MustParseSpec("lard-weighted"), policytest.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "lard" {
		t.Errorf("unweighted lard-weighted Name = %q, want lard", d.Name())
	}
}

func TestNodeWeightsValidatesLength(t *testing.T) {
	o := policy.Options{Weights: []float64{1, 2}}
	if w := o.NodeWeights(3); w != nil {
		t.Errorf("NodeWeights(3) on a 2-slice = %v, want nil", w)
	}
	if w := o.NodeWeights(2); len(w) != 2 {
		t.Errorf("NodeWeights(2) = %v, want the slice back", w)
	}
}

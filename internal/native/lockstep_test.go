package native

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/policy/policytest"
)

// lockStep drives the simulator's L2S and N native state replicas with the
// same inputs. The simulator reads true loads (Oracle) over a synchronous
// environment; every replica is told every load and every set change before
// the next step, so both sides decide from identical knowledge.
type lockStep struct {
	env   *policytest.Env
	sim   *core.L2S
	reps  []*state
	alive func(int) bool
	t0    time.Time
	ms    int64 // current time in whole milliseconds
}

// lockStepFiles is the catalogue both sides decide over.
const lockStepFiles = 40

func newLockStep(n int, opts core.Options) *lockStep {
	opts.Oracle = true
	ls := &lockStep{env: policytest.New(n), reps: make([]*state, n), t0: time.Unix(1e9, 0)}
	ls.sim = core.New(ls.env, opts, policy.NewFileSets(lockStepFiles, nil))
	ls.alive = func(i int) bool { return !ls.env.Dead[i] }
	opts.Oracle = false
	for i := range ls.reps {
		ls.reps[i] = newState(i, n, lockStepFiles, opts)
		ls.reps[i].now = func() time.Time { return ls.t0.Add(time.Duration(ls.ms) * time.Millisecond) }
	}
	return ls
}

// step sets every node's load, advances both clocks to ms, decides one
// request for file f entering at initial on both sides and gossips the
// native change. It returns the two service nodes.
func (ls *lockStep) step(initial int, f cache.FileID, loads []int, ms int64) (sim, native int) {
	ls.ms = ms
	ls.env.Clock = float64(ms) / 1000
	copy(ls.env.Loads, loads)
	for i, r := range ls.reps {
		r.setLocalLoad(loads[i])
		for j, l := range loads {
			r.applyLoad(j, l)
		}
	}
	sim = ls.sim.Service(initial, f)
	native, changed := ls.reps[initial].decide(f, ls.alive)
	if changed != nil {
		for i, r := range ls.reps {
			if i != initial {
				r.applySet(*changed)
			}
		}
	}
	return sim, native
}

// TestL2SLockStep feeds one random sequence of requests, loads and clock
// steps to the simulator's L2S and to N native replicas: after every step
// the service node and the file's member list, order included, must agree
// on every replica. Loads straddle T and t and the clock crosses
// ShrinkAfter, so every branch of the rule fires.
func TestL2SLockStep(t *testing.T) {
	const (
		T, lowT = 6, 3
		steps   = 10000
	)
	// Half a millisecond off the clock's grid: the simulator's float seconds
	// and native's time.Time agree on every comparison with it.
	opts := core.Options{T: T, LowT: lowT, BroadcastDelta: 1, ShrinkAfter: 0.0205}
	for _, n := range []int{2, 4, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("N=%d/seed=%d", n, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				ls := newLockStep(n, opts)
				loads := make([]int, n)
				var first, local, forward, grow, shrink int
				var ms int64
				for s := 0; s < steps; s++ {
					for i := range loads {
						loads[i] = rng.Intn(T + 4)
					}
					ms += int64(rng.Intn(8))
					initial, f := rng.Intn(n), cache.FileID(rng.Intn(lockStepFiles))
					before := ls.sim.ServerSet(f)

					sim, native := ls.step(initial, f, loads, ms)
					after := ls.sim.ServerSet(f)
					if sim != native {
						t.Fatalf("step %d (initial %d, file %d, loads %v): simulator serves at %d, native at %d",
							s, initial, f, loads, sim, native)
					}
					for i, r := range ls.reps {
						if got := r.serverSet(f); !slices.Equal(got, after) {
							t.Fatalf("step %d (initial %d, file %d, loads %v): simulator set %v, replica %d set %v",
								s, initial, f, loads, after, i, got)
						}
					}

					switch {
					case before == nil:
						first++
					case len(after) > len(before):
						grow++
					case len(after) < len(before):
						shrink++
					}
					if before != nil && sim == initial {
						local++
					} else if before != nil {
						forward++
					}
				}
				t.Logf("first %d, local %d, forward %d, grow %d, shrink %d", first, local, forward, grow, shrink)
				for name, c := range map[string]int{"first-request": first, "local": local, "forward": forward, "grow": grow, "shrink": shrink} {
					if c == 0 {
						t.Errorf("the %s branch never fired", name)
					}
				}
			})
		}
	}
}

// TestL2SLockStepDeadMember pins the one divergence the two wrappers keep
// on purpose: the simulator leaves a dead member in the set and skips it,
// native evicts it before deciding. Both still pick the same server.
func TestL2SLockStepDeadMember(t *testing.T) {
	ls := newLockStep(3, core.Options{T: 20, LowT: 10, BroadcastDelta: 1, ShrinkAfter: 20})
	ls.step(0, 7, []int{0, 0, 0}, 0)   // set {0}
	ls.step(0, 7, []int{25, 0, 25}, 1) // node 0 and member 0 overloaded: set {0, 1}
	if got := ls.sim.ServerSet(7); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("set = %v, want [0 1]", got)
	}
	ls.env.Dead[0] = true
	sim, native := ls.step(1, 7, []int{0, 0, 0}, 2)
	if sim != 1 || native != 1 {
		t.Fatalf("served at simulator %d, native %d; want 1 on both", sim, native)
	}
	if got := ls.sim.ServerSet(7); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("simulator set = %v, want the dead member kept: [0 1]", got)
	}
	for i, r := range ls.reps {
		if got := r.serverSet(7); !slices.Equal(got, []int{1}) {
			t.Fatalf("replica %d set = %v, want the dead member evicted: [1]", i, got)
		}
	}
}

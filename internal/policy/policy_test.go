package policy

import (
	"testing"
)

// fakeEnv is a deterministic in-memory Env for policy unit tests: control
// messages deliver immediately (or after Step() when deferred is true).
type fakeEnv struct {
	n      int
	now    float64
	loads  []int
	dead   []bool
	queue  []func() // deferred deliveries
	defer_ bool
	sent   int
}

func newFakeEnv(n int) *fakeEnv {
	return &fakeEnv{n: n, loads: make([]int, n), dead: make([]bool, n)}
}

func (e *fakeEnv) N() int           { return e.n }
func (e *fakeEnv) Now() float64     { return e.now }
func (e *fakeEnv) Load(n int) int   { return e.loads[n] }
func (e *fakeEnv) Alive(n int) bool { return !e.dead[n] }

func (e *fakeEnv) SendControl(from, to int, onDeliver func()) {
	e.sent++
	e.deliver(onDeliver)
}

func (e *fakeEnv) BroadcastControl(from int, onDeliver func()) {
	e.sent += e.n - 1
	e.deliver(onDeliver)
}

func (e *fakeEnv) deliver(fn func()) {
	if fn == nil {
		return
	}
	if e.defer_ {
		e.queue = append(e.queue, fn)
		return
	}
	fn()
}

func (e *fakeEnv) flush() {
	q := e.queue
	e.queue = nil
	for _, fn := range q {
		fn()
	}
}

func TestFewestConnectionsPicksLeastLoaded(t *testing.T) {
	env := newFakeEnv(4)
	p := NewFewestConnections(env)
	env.loads = []int{5, 2, 7, 3}
	if got := p.Initial(0); got != 1 {
		t.Fatalf("Initial = %d, want 1", got)
	}
	if p.Service(1, 0) != 1 {
		t.Fatal("traditional must service at the initial node")
	}
	if p.FrontEnd() != -1 {
		t.Fatal("traditional has no front-end")
	}
}

func TestFewestConnectionsRotatesTies(t *testing.T) {
	env := newFakeEnv(4)
	p := NewFewestConnections(env)
	seen := make(map[int]bool)
	for i := 0; i < 4; i++ {
		seen[p.Initial(0)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("tied loads should rotate over all nodes, got %v", seen)
	}
}

func TestFewestConnectionsSkipsDead(t *testing.T) {
	env := newFakeEnv(3)
	p := NewFewestConnections(env)
	env.dead[0] = true
	env.loads = []int{0, 4, 2}
	if got := p.Initial(0); got != 2 {
		t.Fatalf("Initial = %d, want 2 (node 0 dead)", got)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	env := newFakeEnv(3)
	r := NewRoundRobin(env)
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, r.Next())
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsDead(t *testing.T) {
	env := newFakeEnv(3)
	r := NewRoundRobin(env)
	env.dead[1] = true
	var got []int
	for i := 0; i < 4; i++ {
		got = append(got, r.Next())
	}
	want := []int{0, 2, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", got, want)
		}
	}
}

func TestLARDRoutesEverythingThroughFrontEnd(t *testing.T) {
	env := newFakeEnv(4)
	l := NewLARD(env, DefaultLARDOptions(), NewFileSets(64, nil))
	if l.FrontEnd() != 0 {
		t.Fatalf("FrontEnd = %d, want 0", l.FrontEnd())
	}
	for f := FileID(0); f < 10; f++ {
		if got := l.Initial(f); got != 0 {
			t.Fatalf("Initial = %d, want front-end 0", got)
		}
		svc := l.Service(0, f)
		if svc == 0 {
			t.Fatal("front-end must not service requests")
		}
	}
}

func TestLARDSingleNodeDegenerates(t *testing.T) {
	env := newFakeEnv(1)
	l := NewLARD(env, DefaultLARDOptions(), NewFileSets(64, nil))
	if l.FrontEnd() != -1 {
		t.Fatal("single-node LARD has no front-end")
	}
	if l.Initial(1) != 0 || l.Service(0, 1) != 0 {
		t.Fatal("single-node LARD must serve locally")
	}
	l.OnComplete(0, 1) // must not send messages
	if env.sent != 0 {
		t.Fatal("single-node LARD must not message anyone")
	}
}

func TestLARDStickyAssignment(t *testing.T) {
	env := newFakeEnv(5)
	l := NewLARD(env, DefaultLARDOptions(), NewFileSets(64, nil))
	first := l.Service(0, 42)
	l.OnAssign(first)
	// Subsequent requests for the same target stay on the same back-end
	// while it is not overloaded.
	for i := 0; i < 10; i++ {
		got := l.Service(0, 42)
		if got != first {
			t.Fatalf("request %d moved to %d, want sticky %d", i, got, first)
		}
		l.OnAssign(got)
	}
	// Distinct targets spread across back-ends (least-loaded placement).
	other := l.Service(0, 43)
	if other == first {
		t.Fatalf("new target placed on the loaded node %d", first)
	}
}

func TestLARDReplicatesWhenOverloaded(t *testing.T) {
	env := newFakeEnv(5)
	opts := DefaultLARDOptions()
	l := NewLARD(env, opts, NewFileSets(64, nil))
	first := l.Service(0, 7)
	// Push the assigned node past THigh while others stay idle.
	for i := 0; i <= opts.THigh; i++ {
		l.OnAssign(first)
	}
	second := l.Service(0, 7)
	if second == first {
		t.Fatal("overloaded server set did not replicate")
	}
	if sizes := l.SetSizes(); sizes[2] != 1 {
		t.Fatalf("set sizes = %v, want one set of size 2", sizes)
	}
}

func TestLARDBasicReassignsInsteadOfReplicating(t *testing.T) {
	env := newFakeEnv(5)
	opts := DefaultLARDOptions()
	opts.Replication = false
	l := NewLARD(env, opts, NewFileSets(64, nil))
	first := l.Service(0, 7)
	for i := 0; i <= opts.THigh; i++ {
		l.OnAssign(first)
	}
	second := l.Service(0, 7)
	if second == first {
		t.Fatal("overloaded server did not move")
	}
	if sizes := l.SetSizes(); sizes[1] != 1 || sizes[2] != 0 {
		t.Fatalf("basic LARD must keep singleton sets, got %v", sizes)
	}
	if l.Name() != "lard-basic" {
		t.Fatalf("Name = %q", l.Name())
	}
}

func TestLARDShrinksStableSets(t *testing.T) {
	env := newFakeEnv(5)
	opts := DefaultLARDOptions()
	l := NewLARD(env, opts, NewFileSets(64, nil))
	first := l.Service(0, 7)
	for i := 0; i <= opts.THigh; i++ {
		l.OnAssign(first)
	}
	l.Service(0, 7) // replicates
	env.now = opts.ShrinkAfter + 1
	l.Service(0, 7)
	if sizes := l.SetSizes(); sizes[1] != 1 {
		t.Fatalf("stable set did not shrink: %v", sizes)
	}
}

func TestLARDBatchedLoadUpdates(t *testing.T) {
	env := newFakeEnv(3)
	env.defer_ = true
	opts := DefaultLARDOptions()
	l := NewLARD(env, opts, NewFileSets(64, nil))
	svc := l.Service(0, 1)
	for i := 0; i < 8; i++ {
		l.OnAssign(svc)
	}
	// Three completions: below the batch of 4, no message.
	for i := 0; i < 3; i++ {
		l.OnComplete(svc, 1)
	}
	if env.sent != 0 {
		t.Fatalf("sent %d messages before the batch filled", env.sent)
	}
	l.OnComplete(svc, 1)
	if env.sent != 1 {
		t.Fatalf("sent %d messages, want 1 after 4 completions", env.sent)
	}
	before := l.feLoad[svc]
	env.flush()
	if l.feLoad[svc] != before-4 {
		t.Fatalf("front-end view = %d, want %d", l.feLoad[svc], before-4)
	}
}

func TestLARDAvoidsDeadBackends(t *testing.T) {
	env := newFakeEnv(4)
	l := NewLARD(env, DefaultLARDOptions(), NewFileSets(64, nil))
	svc := l.Service(0, 9)
	env.dead[svc] = true
	got := l.Service(0, 9)
	if got == svc {
		t.Fatal("LARD kept routing to a dead back-end")
	}
}

func TestLARDBadThresholdsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad thresholds did not panic")
		}
	}()
	NewLARD(newFakeEnv(2), LARDOptions{TLow: 10, THigh: 5, UpdateBatch: 4}, NewFileSets(64, nil))
}

func TestDispatchLARDStructure(t *testing.T) {
	env := newFakeEnv(5)
	d := NewDispatchLARD(env, DefaultLARDOptions(), 0.0001, NewFileSets(64, nil))
	if d.Name() != "lard-dispatch" {
		t.Fatalf("Name = %q", d.Name())
	}
	if d.FrontEnd() != 0 {
		t.Fatal("dispatcher must be node 0")
	}
	// Connections never land on the dispatcher.
	for i := 0; i < 20; i++ {
		if d.Initial(0) == 0 {
			t.Fatal("connection accepted at the dispatcher")
		}
	}
	// Decisions never pick the dispatcher as service node.
	for f := FileID(0); f < 20; f++ {
		if svc := d.Service(d.Initial(f), f); svc == 0 {
			t.Fatal("dispatcher chosen as service node")
		}
	}
	node, cpu := d.Dispatcher()
	if node != 0 || cpu != 0.0001 {
		t.Fatalf("Dispatcher = (%d, %v)", node, cpu)
	}
}

func TestDispatchLARDSingleNode(t *testing.T) {
	env := newFakeEnv(1)
	d := NewDispatchLARD(env, DefaultLARDOptions(), 0.0001, NewFileSets(64, nil))
	if d.FrontEnd() != -1 || d.Initial(0) != 0 || d.Service(0, 0) != 0 {
		t.Fatal("single-node dispatcher must degenerate to local service")
	}
}

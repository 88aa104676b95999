package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResourceFCFSSingleServer(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	var done []float64
	// Three jobs of 2s each arriving at t=0 must finish at 2, 4, 6.
	for i := 0; i < 3; i++ {
		r.Acquire(2, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []float64{2, 4, 6}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if r.Completed() != 3 {
		t.Fatalf("Completed = %d, want 3", r.Completed())
	}
}

func TestResourceIdleThenBusy(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "disk", 1)
	var finish float64
	e.Schedule(10, func() {
		r.Acquire(5, func() { finish = e.Now() })
	})
	e.Run()
	if finish != 15 {
		t.Fatalf("finish = %v, want 15", finish)
	}
	// Busy 5s out of 15s elapsed.
	if got := r.Utilization(); math.Abs(got-5.0/15.0) > 1e-12 {
		t.Fatalf("Utilization = %v, want %v", got, 5.0/15.0)
	}
}

func TestResourceMultiServer(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "nic", 2)
	var done []float64
	for i := 0; i < 4; i++ {
		r.Acquire(3, func() { done = append(done, e.Now()) })
	}
	e.Run()
	// Two servers: pairs finish at 3 and 6.
	want := []float64{3, 3, 6, 6}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestResourceZeroServersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource with 0 servers did not panic")
		}
	}()
	NewResource(NewEngine(), "bad", 0)
}

func TestResourceNegativeServicePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire(-1) did not panic")
		}
	}()
	r.Acquire(-1, nil)
}

func TestResourceQueueAccounting(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	for i := 0; i < 5; i++ {
		r.Acquire(1, nil)
	}
	if r.InSystem() != 5 {
		t.Fatalf("InSystem = %d, want 5", r.InSystem())
	}
	e.Run()
	if r.InSystem() != 0 {
		t.Fatalf("InSystem after run = %d, want 0", r.InSystem())
	}
}

func TestResourceResetStats(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	r.Acquire(4, nil)     // busy [0,4]
	e.At(2, r.ResetStats) // measurement starts at t=2; 2s of that job remain
	e.Run()
	if r.Completed() != 1 {
		t.Fatalf("Completed = %d, want 1", r.Completed())
	}
	// Elapsed 2s (from 2 to 4), busy 2s -> utilization 1.
	if got := r.Utilization(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Utilization = %v, want 1", got)
	}
}

func TestResourceUtilizationNeverExceedsOne(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		e.Schedule(rng.Float64()*10, func() {
			r.Acquire(rng.Float64(), nil)
		})
	}
	e.Run()
	if u := r.Utilization(); u > 1+1e-9 {
		t.Fatalf("Utilization = %v > 1", u)
	}
}

// Property: for any arrival pattern, (a) completions never overlap on a
// single server (sum of service = busy time), (b) every job completes, and
// (c) completion order equals arrival order for equal-priority FCFS with a
// single server.
func TestPropertyResourceConservation(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewResource(e, "cpu", 1)
		count := int(n%50) + 1
		var totalService float64
		completions := 0
		order := make([]int, 0, count)
		for i := 0; i < count; i++ {
			i := i
			at := rng.Float64() * 20
			svc := rng.Float64() * 2
			e.Schedule(at, func() {
				totalService += svc
				r.Acquire(svc, func() {
					completions++
					order = append(order, i)
				})
			})
		}
		e.Run()
		if completions != count {
			return false
		}
		if math.Abs(r.BusyTime()-totalService) > 1e-9 {
			return false
		}
		return r.Utilization() <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: with k servers the utilization is also bounded by 1 and the
// busy time equals the sum of service demands.
func TestPropertyMultiServerConservation(t *testing.T) {
	prop := func(seed int64, servers uint8) bool {
		k := int(servers%4) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewResource(e, "nic", k)
		var total float64
		for i := 0; i < 40; i++ {
			at := rng.Float64() * 10
			svc := rng.Float64()
			e.Schedule(at, func() {
				total += svc
				r.Acquire(svc, nil)
			})
		}
		e.Run()
		return math.Abs(r.BusyTime()-total) < 1e-9 && r.Utilization() <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// An M/M/1 sanity check: with Poisson arrivals at rate lambda and
// exponential service at rate mu, the measured utilization approaches
// rho = lambda/mu.
func TestResourceMM1Utilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "mm1", 1)
	rng := rand.New(rand.NewSource(7))
	lambda, mu := 0.5, 1.0
	const jobs = 200000
	var arrive func(i int, at float64)
	arrive = func(i int, at float64) {
		if i >= jobs {
			return
		}
		e.At(at, func() {
			r.Acquire(rng.ExpFloat64()/mu, nil)
			arrive(i+1, at+rng.ExpFloat64()/lambda)
		})
	}
	arrive(0, 0)
	e.Run()
	rho := lambda / mu
	if got := r.Utilization(); math.Abs(got-rho) > 0.02 {
		t.Fatalf("M/M/1 utilization = %v, want about %v", got, rho)
	}
}

// M/M/1 response time: the simulated mean time in system must match the
// closed form W = 1/(mu - lambda), the same formula the analytic model's
// Latency uses — a cross-validation of the DES against queueing theory.
func TestResourceMM1ResponseTime(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "mm1", 1)
	rng := rand.New(rand.NewSource(11))
	lambda, mu := 0.7, 1.0
	const jobs = 300000
	var totalW float64
	var arrive func(i int, at float64)
	arrive = func(i int, at float64) {
		if i >= jobs {
			return
		}
		e.At(at, func() {
			start := e.Now()
			r.Acquire(rng.ExpFloat64()/mu, func() {
				totalW += e.Now() - start
			})
			arrive(i+1, at+rng.ExpFloat64()/lambda)
		})
	}
	arrive(0, 0)
	e.Run()
	want := 1 / (mu - lambda) // = 3.333...
	got := totalW / jobs
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("M/M/1 mean response time = %v, want about %v", got, want)
	}
}

// ChargeAt must book work exactly as same-instant Acquires do — identical
// free times, busy time, and finish times — while firing no events. This is
// the equivalence that lets batched broadcasts charge endpoint resources
// arithmetically without perturbing utilization.
func TestResourceChargeAtMatchesAcquire(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		ra := NewResource(e, "a", 1)
		rc := NewResource(e, "c", 1)
		n := rng.Intn(8) + 1
		at := rng.Float64() * 5
		var finA, finC []float64
		e.At(at, func() {
			for i := 0; i < n; i++ {
				svc := 0.001 * float64(rng.Intn(9)+1)
				finA = append(finA, ra.Acquire(svc, nil))
				finC = append(finC, rc.ChargeAt(e.Now(), svc))
			}
		})
		e.Run()
		for i := range finA {
			if finA[i] != finC[i] {
				t.Fatalf("trial %d job %d: Acquire finish %v, ChargeAt finish %v",
					trial, i, finA[i], finC[i])
			}
		}
		if ra.BusyTime() != rc.BusyTime() {
			t.Fatalf("trial %d: busy %v vs %v", trial, ra.BusyTime(), rc.BusyTime())
		}
	}
}

// ChargeAt with a past arrival time must queue behind already-booked work,
// never rewind a server's free time.
func TestResourceChargeAtPastArrival(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ni", 1)
	if got := r.ChargeAt(0, 2); got != 2 {
		t.Fatalf("first charge finish = %v, want 2", got)
	}
	// Arrives at t=1 while the server is busy until 2: starts at 2.
	if got := r.ChargeAt(1, 3); got != 5 {
		t.Fatalf("queued charge finish = %v, want 5", got)
	}
	// Arrives after the backlog drains: idles until 7.
	if got := r.ChargeAt(7, 1); got != 8 {
		t.Fatalf("idle charge finish = %v, want 8", got)
	}
	if r.BusyTime() != 6 {
		t.Fatalf("BusyTime = %v, want 6", r.BusyTime())
	}
}

// ChargeAt on a multi-server resource picks the earliest-free server, same
// as Acquire.
func TestResourceChargeAtMultiServer(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "nic", 2)
	fins := []Time{
		r.ChargeAt(0, 3), // server 0: [0,3]
		r.ChargeAt(0, 3), // server 1: [0,3]
		r.ChargeAt(0, 3), // server 0: [3,6]
		r.ChargeAt(0, 3), // server 1: [3,6]
	}
	want := []Time{3, 3, 6, 6}
	for i := range want {
		if fins[i] != want[i] {
			t.Fatalf("finishes = %v, want %v", fins, want)
		}
	}
}

func TestResourceChargeAtNegativeServicePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("ChargeAt(-1) did not panic")
		}
	}()
	r.ChargeAt(0, -1)
}

// TestResourceNaNServicePanics: a NaN service time would file a NaN
// completion in the calendar and turn the clock NaN when it fired, so
// Acquire and ChargeAt refuse it like a negative one, and nothing is filed.
func TestResourceNaNServicePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	for what, call := range map[string]func(){
		"Acquire(NaN)":     func() { r.Acquire(math.NaN(), nil) },
		"ChargeAt(0, NaN)": func() { r.ChargeAt(0, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", what)
				}
			}()
			call()
		}()
	}
	if e.Step() || r.InSystem() != 0 || r.BusyTime() != 0 {
		t.Errorf("a refused job was booked: InSystem %d, busy %v", r.InSystem(), r.BusyTime())
	}
}

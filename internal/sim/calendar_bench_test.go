package sim

import (
	"math"
	"math/rand"
	"testing"
)

// calendarLoads are the bench workloads' calendars as measured on their
// default-seed runs at full scale: the mean number of pending events at a
// pop, and the percentage of pushes by delay band, share[i] being due
// between 2^(9+i) and 2^(10+i) ns after the push (bands with no push
// dropped at the end). gossip1024 is left out: its flattened gossip rounds
// put 55 % of its pushes 2–4 s ahead, a shape none of these has.
var calendarLoads = []struct {
	name  string
	depth int
	share []float64
}{
	{"paper16-traditional", 192, []float64{12.26, 0.93, 1.09, 16.58, 4.72, 6.51, 6.44, 5.32, 18.23, 6.88,
		17.46, 0.57, 0.03, 0, 0, 0, 0, 0, 0, 2.95}},
	{"paper16-lard", 205, []float64{5.43, 2.43, 5.83, 27.46, 6.53, 4.47, 3.74, 2.90, 3.12, 3.97,
		8.91, 3.49, 0.95, 2.28, 17.33, 0.86, 0.07, 0.06, 0.02, 0.09}},
	{"paper16-l2s", 267, []float64{2.99, 9.16, 4.43, 25.72, 3.68, 5.51, 6.81, 4.74, 4.22, 3.48,
		6.82, 7.27, 8.31, 5.59, 1.02, 0.06, 0.03, 0.03, 0.05, 0.07, 0.01}},
	{"chash1024", 12246, []float64{0.29, 0.15, 15.05, 32.26, 2.22, 3.05, 2.71, 9.96, 12.14, 5.79,
		6.07, 1.63, 1.30, 0.79, 2.23, 0.90, 0.05, 0.14, 0.61, 2.65}},
}

// BenchmarkCalendar is the hold model of the calendar: it fills the
// calendar to a workload's depth and then, per operation, schedules one
// event and fires the earliest, so the depth holds. Delays are drawn from
// the workload's measured bands, uniformly within a band. The clock starts
// at 100 s, where the time bits look like a run's. ns/op is the cost of
// one push plus one pop.
func BenchmarkCalendar(b *testing.B) {
	for _, load := range calendarLoads {
		b.Run(load.name, func(b *testing.B) {
			var total float64
			for _, s := range load.share {
				total += s
			}
			rng := rand.New(rand.NewSource(1))
			delays := make([]Time, 1<<16)
			for i := range delays {
				u, band := rng.Float64()*total, 0
				for band < len(load.share)-1 && u >= load.share[band] {
					u -= load.share[band]
					band++
				}
				lo := math.Ldexp(1e-9, 9+band)
				delays[i] = lo + rng.Float64()*lo
			}
			e := NewEngine()
			noop := func() {}
			e.At(100, noop)
			e.Step()
			for i := 0; i < load.depth; i++ {
				e.Schedule(delays[i%len(delays)], noop)
			}
			// Reach the steady state: every event filed before the clock
			// passes twice the longest delay has fired by then.
			horizon := e.Now() + math.Ldexp(1e-9, 10+len(load.share))
			for i := 0; e.Now() < horizon; i++ {
				e.Schedule(delays[i%len(delays)], noop)
				e.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Schedule(delays[i%len(delays)], noop)
				e.Step()
			}
		})
	}
}

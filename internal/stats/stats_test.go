package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	for _, x := range []float64{1, 2, 3, 4, 5} {
		m.Add(x)
	}
	if m.N() != 5 {
		t.Fatalf("N = %d, want 5", m.N())
	}
	if m.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", m.Mean())
	}
	if math.Abs(m.Var()-2.5) > 1e-12 {
		t.Fatalf("Var = %v, want 2.5", m.Var())
	}
	if m.Min() != 1 || m.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v, want 1/5", m.Min(), m.Max())
	}
	if m.Sum() != 15 {
		t.Fatalf("Sum = %v, want 15", m.Sum())
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Mean() != 0 || m.Var() != 0 || m.Stddev() != 0 {
		t.Fatal("empty Mean should report zeros")
	}
}

// Property: Welford's mean/variance match the naive two-pass computation.
func TestPropertyMeanMatchesNaive(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%100) + 2
		xs := make([]float64, count)
		var m Mean
		for i := range xs {
			xs[i] = rng.NormFloat64() * 1000
			m.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		naiveMean := sum / float64(count)
		var ss float64
		for _, x := range xs {
			ss += (x - naiveMean) * (x - naiveMean)
		}
		naiveVar := ss / float64(count-1)
		return math.Abs(m.Mean()-naiveMean) < 1e-6 &&
			math.Abs(m.Var()-naiveVar) < 1e-4*math.Max(1, naiveVar)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeighted(t *testing.T) {
	var w TimeWeighted
	w.Set(2, 0)  // value 2 over [0, 10)
	w.Set(4, 10) // value 4 over [10, 20)
	if got := w.Average(20); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Average(20) = %v, want 3", got)
	}
	if w.Min() != 2 || w.Max() != 4 {
		t.Fatalf("Min/Max = %v/%v, want 2/4", w.Min(), w.Max())
	}
}

func TestTimeWeightedReset(t *testing.T) {
	var w TimeWeighted
	w.Set(100, 0)
	w.Set(2, 10)
	w.Reset(10)
	w.Set(4, 20)
	if got := w.Average(30); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Average after reset = %v, want 3", got)
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var w TimeWeighted
	w.Set(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("Set with earlier time did not panic")
		}
	}()
	w.Set(2, 5)
}

// Property: the time average always lies within [min, max] of the values.
func TestPropertyTimeWeightedBounds(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var w TimeWeighted
		tcur := 0.0
		lo, hi := math.Inf(1), math.Inf(-1)
		count := int(n%30) + 2
		for i := 0; i < count; i++ {
			v := rng.Float64() * 50
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			w.Set(v, tcur)
			tcur += rng.Float64() + 0.01
		}
		avg := w.Average(tcur)
		return avg >= lo-1e-9 && avg <= hi+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	if h.N() != 1000 {
		t.Fatalf("N = %d", h.N())
	}
	if math.Abs(h.Mean()-500.5) > 1e-9 {
		t.Fatalf("Mean = %v, want 500.5", h.Mean())
	}
	// Log buckets give coarse quantiles: p50 must land within a factor of 2.
	p50 := h.Quantile(0.5)
	if p50 < 250 || p50 > 1000 {
		t.Fatalf("p50 = %v, expected within a factor of 2 of 500", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 495 {
		t.Fatalf("p99 = %v, should be near the top", p99)
	}
	if h.Quantile(1) < h.Quantile(0.5) {
		t.Fatal("quantiles must be monotone")
	}
}

func TestHistogramZeroAndEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Add(0)
	h.Add(0)
	h.Add(8)
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("median with majority zeros = %v, want 0", q)
	}
	if h.String() == "" {
		t.Fatal("String should render a summary")
	}
}

// Property: quantiles are nondecreasing in q.
func TestPropertyHistogramMonotoneQuantiles(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram()
		for i := 0; i < int(n%200)+1; i++ {
			h.Add(rng.ExpFloat64() * 100)
		}
		last := -1.0
		for q := 0.1; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Fatal("empty ratio should be 0")
	}
	r.Observe(true)
	r.Observe(true)
	r.Observe(false)
	if math.Abs(r.Value()-2.0/3.0) > 1e-12 {
		t.Fatalf("Value = %v, want 2/3", r.Value())
	}
}

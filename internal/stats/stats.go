// Package stats provides the small statistics toolkit used throughout the
// simulator and the experiment harness: streaming means and variances,
// time-weighted averages for load processes, and logarithmic histograms for
// latency-like quantities.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean accumulates a streaming mean and variance using Welford's algorithm,
// which stays numerically stable over millions of samples.
type Mean struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one sample.
func (m *Mean) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// N returns the number of samples.
func (m *Mean) N() uint64 { return m.n }

// Mean returns the sample mean, or 0 with no samples.
func (m *Mean) Mean() float64 { return m.mean }

// Var returns the unbiased sample variance, or 0 with fewer than 2 samples.
func (m *Mean) Var() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// Stddev returns the sample standard deviation.
func (m *Mean) Stddev() float64 { return math.Sqrt(m.Var()) }

// Min returns the smallest sample, or 0 with no samples.
func (m *Mean) Min() float64 { return m.min }

// Max returns the largest sample, or 0 with no samples.
func (m *Mean) Max() float64 { return m.max }

// Sum returns the total of all samples.
func (m *Mean) Sum() float64 { return m.mean * float64(m.n) }

// TimeWeighted tracks the time average of a piecewise-constant signal, such
// as the number of open connections at a node.
type TimeWeighted struct {
	value float64
	last  float64
	area  float64
	start float64
	began bool
	min   float64
	max   float64
}

// Set records that the signal changed to v at time t. Times must be
// nondecreasing.
func (w *TimeWeighted) Set(v, t float64) {
	if !w.began {
		w.start, w.last, w.began = t, t, true
		w.min, w.max = v, v
	}
	if t < w.last {
		panic(fmt.Sprintf("stats: time went backwards (%v < %v)", t, w.last))
	}
	w.area += w.value * (t - w.last)
	w.last = t
	w.value = v
	if v < w.min {
		w.min = v
	}
	if v > w.max {
		w.max = v
	}
}

// Value returns the current signal value.
func (w *TimeWeighted) Value() float64 { return w.value }

// Average returns the time-weighted average of the signal over [start, t].
func (w *TimeWeighted) Average(t float64) float64 {
	if !w.began || t <= w.start {
		return w.value
	}
	area := w.area + w.value*(t-w.last)
	return area / (t - w.start)
}

// Min returns the smallest value the signal has taken.
func (w *TimeWeighted) Min() float64 { return w.min }

// Max returns the largest value the signal has taken.
func (w *TimeWeighted) Max() float64 { return w.max }

// Reset restarts the measurement interval at time t, keeping the current
// value.
func (w *TimeWeighted) Reset(t float64) {
	w.area = 0
	w.start, w.last = t, t
	w.min, w.max = w.value, w.value
	w.began = true
}

// The bucket array spans every positive float64: bucket k counts samples in
// [2^(k+minExp), 2^(k+minExp+1)). minExp is the exponent of the smallest
// subnormal; 2^maxExp is the leading power of the largest finite float64.
// The full span is 2098 buckets — 16 KB per histogram — which buys an
// unconditional array increment per sample with no range bookkeeping.
const (
	histMinExp  = -1074
	histMaxExp  = 1023
	histBuckets = histMaxExp - histMinExp + 1
)

// Histogram is a base-2 logarithmic histogram for positive quantities whose
// interesting range spans several orders of magnitude (latencies, sizes).
// Buckets are a flat array indexed by exponent, so recording a sample is an
// increment, not a map access; this sits on the simulator's per-completion
// path.
type Histogram struct {
	buckets []uint64
	lo, hi  int // occupied bucket index range; lo > hi while empty
	count   uint64
	sum     float64
	zero    uint64 // samples <= 0
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]uint64, histBuckets), lo: histBuckets, hi: -1}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.count++
	h.sum += x
	if x <= 0 {
		h.zero++
		return
	}
	b := bucketOf(x) - histMinExp
	h.buckets[b]++
	if b < h.lo {
		h.lo = b
	}
	if b > h.hi {
		h.hi = b
	}
}

// bucketOf returns floor(log2(x)) for positive x, exactly: Frexp decomposes
// x as frac * 2^exp with frac in [0.5, 1), so the floor is exp-1 with no
// float rounding involved (math.Log2 can round up to an integer for x just
// below a power of two, misplacing the sample by one bucket).
func bucketOf(x float64) int {
	_, exp := math.Frexp(x)
	return exp - 1
}

// N returns the number of samples.
func (h *Histogram) N() uint64 { return h.count }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1), using the
// geometric midpoint of the containing bucket. With no samples it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64 = h.zero
	if cum >= target {
		return 0
	}
	for b := h.lo; b <= h.hi; b++ {
		cum += h.buckets[b]
		if cum >= target {
			lo := math.Pow(2, float64(b+histMinExp))
			return lo * math.Sqrt2 // geometric midpoint of [2^k, 2^(k+1))
		}
	}
	return math.Pow(2, float64(h.hi+histMinExp+1))
}

// String renders a compact textual summary.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histogram: empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99))
	return b.String()
}

// Ratio is a hit/total counter pair, used for cache hit rates and forwarded
// request fractions.
type Ratio struct {
	Hits  uint64
	Total uint64
}

// Observe records one event, counted as a hit when hit is true.
func (r *Ratio) Observe(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Value returns hits/total, or 0 when empty.
func (r *Ratio) Value() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// Package zipf implements the Zipf-like request popularity distributions
// that the paper (following Breslau et al. [7]) uses for both its analytic
// model and its workload characterization: the probability of a request for
// the i'th most popular of F files is proportional to 1/i^alpha, with alpha
// typically below one for WWW traces.
//
// The package provides the accumulated probability z(n, F) of requesting one
// of the n most popular files, its inverse (solving for the catalog size F
// that yields a target hit rate, as required by the paper's definition of
// the locality-conscious hit rate), and a sampler for trace generation.
package zipf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/chunk"
)

// exactLimit is the largest n for which Harmonic sums term by term; beyond
// it an Euler-Maclaurin expansion keeps the error below 1e-10 relative.
const exactLimit = 1 << 10

// Harmonic returns the generalized harmonic number H(alpha, n) =
// sum_{i=1..n} i^-alpha. It accepts any alpha >= 0 and n >= 0.
func Harmonic(alpha float64, n int64) float64 {
	if n <= 0 {
		return 0
	}
	if n <= exactLimit {
		return exactSum(alpha, n)
	}
	base := exactSum(alpha, exactLimit)
	return base + tailSum(alpha, exactLimit, n)
}

func exactSum(alpha float64, n int64) float64 {
	// Sum smallest terms first for floating-point accuracy.
	var s float64
	if alpha == 1 {
		for i := n; i >= 1; i-- {
			s += 1 / float64(i)
		}
		return s
	}
	for i := n; i >= 1; i-- {
		s += math.Pow(float64(i), -alpha)
	}
	return s
}

// tailSum approximates sum_{i=a+1..b} i^-alpha with Euler-Maclaurin:
// integral + boundary + first derivative correction.
func tailSum(alpha float64, a, b int64) float64 {
	fa := math.Pow(float64(a), -alpha)
	fb := math.Pow(float64(b), -alpha)
	var integral float64
	if d := 1 - alpha; d == 0 {
		integral = math.Log(float64(b) / float64(a))
	} else {
		// (b^d - a^d)/d cancels catastrophically as alpha -> 1 (both powers
		// round to 1); a^d * expm1(d*log(b/a))/d is the same integral but
		// stays accurate through the limit.
		integral = math.Pow(float64(a), d) * math.Expm1(d*math.Log(float64(b)/float64(a))) / d
	}
	// sum_{i=a..b} f(i) ~ integral + (fa+fb)/2 + (f'(b)-f'(a))/12, then drop f(a).
	dfa := -alpha * math.Pow(float64(a), -alpha-1)
	dfb := -alpha * math.Pow(float64(b), -alpha-1)
	return integral + (fa+fb)/2 + (dfb-dfa)/12 - fa
}

// Z returns the accumulated probability z(n, F) of a request hitting one of
// the n most popular files out of F, under a Zipf-like law with the given
// alpha. It is 0 for n <= 0 and 1 for n >= F.
func Z(alpha float64, n, files int64) float64 {
	if files <= 0 {
		return 0
	}
	if n <= 0 {
		return 0
	}
	if n >= files {
		return 1
	}
	return Harmonic(alpha, n) / Harmonic(alpha, files)
}

// SolveFiles returns the catalog size F such that z(n, F) is closest to the
// target probability. This is the inverse the paper uses to express the
// locality-conscious hit rate as a function of the locality-oblivious one:
// "f is such that Hlo = z(Clo/S, f)". The result is at least n.
//
// z(n, F) is strictly decreasing in F for fixed n, so a binary search works.
// Targets of 1 (or above) return n; impossible targets (below the limit as
// F -> infinity, which is 0 for alpha <= 1) return the search upper bound.
func SolveFiles(alpha float64, n int64, target float64) int64 {
	if n <= 0 {
		panic(fmt.Sprintf("zipf: SolveFiles needs n >= 1, got %d", n))
	}
	if target >= 1 {
		return n
	}
	if target <= 0 {
		panic(fmt.Sprintf("zipf: SolveFiles target must be positive, got %v", target))
	}
	lo, hi := n, int64(1)<<50
	if hi < lo {
		// n already exceeds the search bound: z(n, F) = 1 for every F we
		// could return, so the smallest valid catalog is n itself.
		return lo
	}
	if Z(alpha, n, hi) > target {
		return hi
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if Z(alpha, n, mid) > target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the smallest F with z <= target; check its neighbor for closeness.
	if lo > n {
		below := Z(alpha, n, lo)
		above := Z(alpha, n, lo-1)
		if math.Abs(above-target) < math.Abs(below-target) {
			return lo - 1
		}
	}
	return lo
}

// Dist is a concrete Zipf-like distribution over ranks 1..F, with a
// precomputed CDF and guide table for O(1) expected sampling and O(1)
// popularity queries.
type Dist struct {
	Alpha float64
	F     int64
	norm  float64   // normalization constant: sum_{i=1..F} i^-alpha
	cdf   []float64 // cdf[i] = P(rank <= i+1)

	// guide is the cutpoint table of the inverse-CDF sampler: guide[j] is
	// the smallest index i with cdf[i] >= j/K, for K = F cutpoints. A draw
	// starts its linear scan at guide[floor(u*K)], which on average leaves
	// O(1) CDF entries to walk regardless of F. nil when F is too large to
	// index with int32; Sample then falls back to binary search.
	guide  []int32
	kscale float64 // float64(K)
}

// New builds the distribution. F must be at least 1; alpha must be >= 0.
func New(alpha float64, files int64) *Dist {
	if files < 1 {
		panic(fmt.Sprintf("zipf: need at least one file, got %d", files))
	}
	if alpha < 0 {
		panic(fmt.Sprintf("zipf: alpha must be >= 0, got %v", alpha))
	}
	// The powers and the normalisation run in chunks; the prefix sum stays
	// serial, so every CDF bit and norm match the one-loop sum.
	cdf := make([]float64, files)
	chunk.Fill(len(cdf), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cdf[i] = math.Pow(float64(i+1), -alpha)
		}
	})
	var sum float64
	for i, w := range cdf {
		sum += w
		cdf[i] = sum
	}
	chunk.Fill(len(cdf), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cdf[i] /= sum
		}
	})
	cdf[files-1] = 1 // guard against rounding
	d := &Dist{Alpha: alpha, F: files, norm: sum, cdf: cdf}
	d.buildGuide()
	return d
}

// buildGuide precomputes the cutpoint table in one joint pass over the CDF
// and the K+1 thresholds j/K, both nondecreasing.
func (d *Dist) buildGuide() {
	if d.F > math.MaxInt32-1 {
		return
	}
	k := int(d.F)
	guide := make([]int32, k+1)
	kscale := float64(k)
	j := 0
	for i, c := range d.cdf {
		for j <= k && c >= float64(j)/kscale {
			guide[j] = int32(i)
			j++
		}
	}
	for ; j <= k; j++ {
		guide[j] = int32(len(d.cdf) - 1)
	}
	d.guide = guide
	d.kscale = kscale
}

// P returns the probability of the file with popularity rank i (1-based).
// It is computed directly from the law, i^-alpha / norm: the adjacent-CDF
// difference it replaces cancels catastrophically in the deep tail, where
// both CDF values have rounded to within an ulp of 1.
func (d *Dist) P(rank int64) float64 {
	if rank < 1 || rank > d.F {
		return 0
	}
	return math.Pow(float64(rank), -d.Alpha) / d.norm
}

// CDF returns P(rank <= n).
func (d *Dist) CDF(n int64) float64 {
	if n < 1 {
		return 0
	}
	if n >= d.F {
		return 1
	}
	return d.cdf[n-1]
}

// Sample draws a popularity rank in [1, F]. It consumes exactly one
// uniform draw from rng and returns exactly the rank the binary-search
// inversion returns for that draw (see locate), in O(1) expected time.
func (d *Dist) Sample(rng *rand.Rand) int64 {
	return int64(d.locate(rng.Float64()) + 1)
}

// locate returns the smallest index i with cdf[i] >= u — precisely the
// value of sort.SearchFloat64s(cdf, u) for u in [0, 1). The guide table
// bounds the answer from below: every index before guide[floor(u*K)] has
// cdf < floor(u*K)/K <= u, so a forward scan from there finds the same
// index the binary search would. The backward guard steps exist only for
// the half-ulp case where floor(u*K)/K rounds up past u; they keep the
// equivalence exact for every float64 input rather than almost every one.
func (d *Dist) locate(u float64) int {
	cdf := d.cdf
	if d.guide == nil {
		i := sort.SearchFloat64s(cdf, u)
		if i >= len(cdf) {
			i = len(cdf) - 1
		}
		return i
	}
	j := int(u * d.kscale)
	if j >= len(d.guide) {
		j = len(d.guide) - 1
	}
	i := int(d.guide[j])
	for i > 0 && cdf[i-1] >= u {
		i--
	}
	for cdf[i] < u {
		i++
	}
	return i
}

// locateRef is the binary-search reference inversion, kept for the
// differential test that pins Sample to it.
func (d *Dist) locateRef(u float64) int {
	i := sort.SearchFloat64s(d.cdf, u)
	if i >= len(d.cdf) {
		i = len(d.cdf) - 1
	}
	return i
}

// FitAlpha estimates the Zipf exponent of an observed popularity
// distribution by least-squares regression of log(frequency) on log(rank),
// the standard procedure used to characterize WWW traces. counts must hold
// per-file request counts (any order); files with zero requests are ignored.
func FitAlpha(counts []int64) float64 {
	freqs := make([]float64, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			freqs = append(freqs, float64(c))
		}
	}
	if len(freqs) < 2 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(freqs)))
	var sx, sy, sxx, sxy float64
	n := float64(len(freqs))
	for i, f := range freqs {
		x := math.Log(float64(i + 1))
		y := math.Log(f)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	slope := (n*sxy - sx*sy) / denom
	return -slope
}

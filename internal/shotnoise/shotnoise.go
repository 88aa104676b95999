// Package shotnoise synthesizes non-stationary request processes under the
// shot-noise (cluster point process) popularity model of Olmos, Graham &
// Simonian (Cache Miss Estimation for Non-Stationary Request Processes,
// arXiv:1511.07392): documents arrive as a Poisson process, and each
// arriving document emits its own Poisson stream of requests whose
// intensity decays exponentially over a finite lifetime. The hot set
// therefore rotates continuously — the regime the paper's stationary Zipf
// evaluation could not reach.
//
// Generation is deterministic and seedable like internal/zipf: serial
// draws, chunked transforms. One math/rand source is consumed in a fixed
// order, and only the work on each element after its draws (a request's
// time from its uniform, the sort within disjoint time buckets) runs in
// chunks on several cores, so the same Spec produces a byte-identical
// Process on every run and under any GOMAXPROCS. The
// matching analytic miss probability lives in internal/queuemodel
// (ShotNoise.LRUMiss), which conformance tests pin against simulated runs
// over traces synthesized here.
package shotnoise

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/chunk"
)

// Doc is one document of the process: its arrival time and its weight V —
// the expected number of requests it would emit over an infinite horizon.
type Doc struct {
	Arrival float64
	Weight  float64
}

// Spec parameterizes the process. Time is in arbitrary units (the simulator
// treats request order as the workload; open-loop runs impose wall time
// separately).
type Spec struct {
	// Rate is the document arrival rate (documents per time unit). Zero
	// means no churn arrivals — only Initial documents emit requests.
	Rate float64

	// Horizon is the synthesis window (0, Horizon]. Documents arrive within
	// it and requests beyond it are not generated.
	Horizon float64

	// MeanRequests is E[V], the expected requests per arriving document.
	MeanRequests float64

	// Lifetime is the mean of the exponential intensity profile: document
	// aged a emits requests at rate Weight * exp(-a/Lifetime) / Lifetime.
	// Long lifetimes recover a stationary workload; short ones churn fast.
	Lifetime float64

	// WeightShape selects the weight distribution of arriving documents:
	// 0 draws every weight equal to MeanRequests (the fixed-volume model
	// with a closed-form analytic); a value > 1 draws Pareto(WeightShape)
	// weights with mean MeanRequests, the heavy-tailed popularity mix of
	// real catalogs.
	WeightShape float64

	// MaxDocs, when positive, caps the number of arriving documents: later
	// arrivals are discarded, modeling a finite universe.
	MaxDocs int

	// Initial holds documents already present at time 0 with age 0 —
	// e.g. a pre-existing catalog whose popularity then decays. Their
	// Weight fields are used as-is; Arrival fields are ignored (forced 0).
	Initial []Doc

	Seed int64
}

// Validate reports parameter errors.
func (s Spec) Validate() error {
	switch {
	case s.Rate < 0 || math.IsInf(s.Rate, 0) || math.IsNaN(s.Rate):
		return fmt.Errorf("shotnoise: document rate %v must be finite and >= 0", s.Rate)
	case !(s.Horizon > 0) || math.IsInf(s.Horizon, 0):
		return fmt.Errorf("shotnoise: horizon %v must be positive and finite", s.Horizon)
	case !(s.Lifetime > 0) || math.IsInf(s.Lifetime, 0):
		return fmt.Errorf("shotnoise: lifetime %v must be positive and finite", s.Lifetime)
	case s.Rate > 0 && (!(s.MeanRequests > 0) || math.IsInf(s.MeanRequests, 0)):
		return fmt.Errorf("shotnoise: mean requests %v must be positive and finite", s.MeanRequests)
	case s.WeightShape != 0 && !(s.WeightShape > 1):
		return fmt.Errorf("shotnoise: weight shape %v must be 0 (fixed) or > 1 (Pareto)", s.WeightShape)
	case s.MaxDocs < 0:
		return fmt.Errorf("shotnoise: negative document cap %d", s.MaxDocs)
	case s.Rate == 0 && len(s.Initial) == 0:
		return fmt.Errorf("shotnoise: no documents: zero rate and no initial catalog")
	}
	for i, d := range s.Initial {
		if !(d.Weight > 0) || math.IsInf(d.Weight, 0) {
			return fmt.Errorf("shotnoise: initial document %d has weight %v, need > 0", i, d.Weight)
		}
	}
	return nil
}

// Process is one realization: the documents, and the request stream sorted
// by time. DocOf[k] indexes Docs for request k.
type Process struct {
	Docs  []Doc
	Times []float64
	DocOf []int32
}

// NumRequests returns the number of requests in the realization.
func (p *Process) NumRequests() int { return len(p.Times) }

// Generate realizes the process. The draw order is fixed — document
// arrivals and weights first, then each document's request count and times
// in document order — so a seed pins the output bytes exactly. A spec whose
// realization cannot be indexed by DocOf's int32 is an error.
func Generate(spec Spec) (*Process, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p, err := emit(spec, math.MaxInt32)
	if err != nil {
		return nil, err
	}
	sortByTime(p)
	return p, nil
}

// emit draws the documents and their requests in emission order (document
// by document), refusing a realization of more than limit requests: before
// any request is stored when the expected count is over it, and otherwise
// as soon as the drawn count passes it.
func emit(spec Spec, limit int) (*Process, error) {
	rng := rand.New(rand.NewSource(spec.Seed))

	docs := make([]Doc, 0, len(spec.Initial)+16)
	for _, d := range spec.Initial {
		docs = append(docs, Doc{Arrival: 0, Weight: d.Weight})
	}
	if spec.Rate > 0 {
		for t := rng.ExpFloat64() / spec.Rate; t < spec.Horizon; t += rng.ExpFloat64() / spec.Rate {
			if spec.MaxDocs > 0 && len(docs) >= spec.MaxDocs {
				break
			}
			docs = append(docs, Doc{Arrival: t, Weight: drawWeight(rng, spec)})
		}
	}

	// Requests within the horizon: the profile mass a document of age
	// Horizon-Arrival has emitted is q = 1 - exp(-(Horizon-Arrival)/L), so
	// the in-window count is Poisson(Weight*q) and each time is an
	// inverse-CDF draw from the truncated exponential profile. The total
	// is Poisson with mean sum(Weight*q), which sizes the stream up front
	// with a 4-sigma margin; append absorbs a rarer overflow.
	qs := make([]float64, len(docs))
	mean := 0.0
	for id, d := range docs {
		qs[id] = -math.Expm1(-(spec.Horizon - d.Arrival) / spec.Lifetime)
		mean += d.Weight * qs[id]
	}
	if !(mean <= float64(limit)) {
		return nil, fmt.Errorf("shotnoise: %.4g expected requests exceed the %d a realization can hold", mean, limit)
	}
	size := min(limit, int(mean+4*math.Sqrt(mean))+1)
	p := &Process{Docs: docs, Times: make([]float64, 0, size), DocOf: make([]int32, 0, size)}
	for id, d := range docs {
		n := poisson(rng, d.Weight*qs[id])
		if n > limit-len(p.Times) {
			return nil, fmt.Errorf("shotnoise: realization passed the %d requests it can hold", limit)
		}
		for k := 0; k < n; k++ {
			p.Times = append(p.Times, rng.Float64())
			p.DocOf = append(p.DocOf, int32(id))
		}
	}
	// Times holds each request's uniform u; its age is the inverse CDF of
	// the truncated profile, -L*log1p(-u*q). That transform needs no draw,
	// so it runs in chunks after the serial draws.
	chunk.Fill(len(p.Times), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			id := p.DocOf[k]
			age := -spec.Lifetime * math.Log1p(-p.Times[k]*qs[id])
			p.Times[k] = docs[id].Arrival + age
		}
	})
	return p, nil
}

// MustGenerate is Generate for specs known valid at compile time.
func MustGenerate(spec Spec) *Process {
	p, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// drawWeight samples one document weight: fixed, or Pareto with the spec's
// shape scaled to mean MeanRequests.
func drawWeight(rng *rand.Rand, spec Spec) float64 {
	if spec.WeightShape == 0 {
		return spec.MeanRequests
	}
	// Pareto(x_m, k) has mean x_m*k/(k-1); inverse CDF x_m*u^(-1/k).
	xm := spec.MeanRequests * (spec.WeightShape - 1) / spec.WeightShape
	u := 1 - rng.Float64() // (0, 1], avoids u = 0
	return xm * math.Pow(u, -1/spec.WeightShape)
}

// poisson draws a Poisson variate. Knuth's product method below mean 30
// (exact, and cheap at the per-document means this package sees); above it,
// the rejection sampler PTRS of Hörmann (1993), which is exact and O(1).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		limit := math.Exp(-mean)
		n := 0
		for prod := rng.Float64(); prod > limit; prod *= rng.Float64() {
			n++
		}
		return n
	}
	// PTRS ("Poisson Transformed Rejection with Squeeze").
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(mean)-mean-lg {
			return int(k)
		}
	}
}

// bucketLoad is the mean number of requests per bucket of sortByTime, and
// crowdedBucket the size above which a bucket is not insertion-sorted.
const (
	bucketLoad    = 4
	crowdedBucket = 32
)

// sortByTime orders the request stream stably by time: requests with equal
// times (-0 and +0 included) keep their emission order, so the result is
// the unique ordering by (time, emission index). It is a bucket sort in
// linear expected time: a monotone map sends time t to bucket
// int(t*(nb/maxT)), clamped to [0, nb-1], with nb = n/bucketLoad + 1; a
// counting scatter, stable by construction, moves every request into its
// bucket; and each bucket is sorted stably by time alone and copied back,
// ranges of buckets in chunks on several cores. A crowded bucket
// — a skewed stream, say one outlier far beyond the rest — goes through
// slices.SortStableFunc instead of insertion, so no input sorts in
// quadratic time. Times must not be NaN.
func sortByTime(p *Process) {
	n := len(p.Times)
	if n < 2 {
		return
	}
	maxT := 0.0
	for _, t := range p.Times {
		if t > maxT {
			maxT = t
		}
	}
	nb := n/bucketLoad + 1
	scale := float64(nb) / maxT
	if !(scale <= math.MaxFloat64) { // maxT is 0 or subnormal: one bucket
		nb, scale = 1, 0
	}
	bucket := func(t float64) int { return max(0, min(nb-1, int(t*scale))) }

	// end[b] counts bucket b-1 and then, summed, is where bucket b starts;
	// the scatter advances it to where bucket b ends.
	end := make([]int32, nb+1)
	for _, t := range p.Times {
		end[bucket(t)+1]++
	}
	for b := 1; b <= nb; b++ {
		end[b] += end[b-1]
	}
	reqs := make([]request, n)
	for i, t := range p.Times {
		b := bucket(t)
		reqs[end[b]] = request{t, p.DocOf[i]}
		end[b]++
	}
	// Buckets are disjoint, so a range of them sorts and copies back on its
	// own, while its requests are still in cache.
	chunk.Fill(nb, func(blo, bhi int) {
		first := int32(0)
		if blo > 0 {
			first = end[blo-1]
		}
		lo := first
		for _, hi := range end[blo:bhi] {
			if bk := reqs[lo:hi]; len(bk) > crowdedBucket {
				slices.SortStableFunc(bk, func(a, b request) int { return cmp.Compare(a.t, b.t) })
			} else {
				insertionSort(bk)
			}
			lo = hi
		}
		for i := first; i < lo; i++ {
			p.Times[i], p.DocOf[i] = reqs[i].t, reqs[i].doc
		}
	})
}

// request is one entry of the stream while sortByTime orders it.
type request struct {
	t   float64
	doc int32
}

// insertionSort sorts a small bucket stably by time.
func insertionSort(rs []request) {
	for i := 1; i < len(rs); i++ {
		r, j := rs[i], i
		for ; j > 0 && r.t < rs[j-1].t; j-- {
			rs[j] = rs[j-1]
		}
		rs[j] = r
	}
}

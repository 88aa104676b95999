package shotnoise

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

func baseSpec() Spec {
	return Spec{
		Rate:         20,
		Horizon:      200,
		MeanRequests: 50,
		Lifetime:     5,
		Seed:         7,
	}
}

// TestDeterminism: same seed, byte-identical process across repeated runs
// and across GOMAXPROCS settings — serial draws, chunked transforms.
func TestDeterminism(t *testing.T) {
	ref := MustGenerate(baseSpec())
	for run := 0; run < 3; run++ {
		got := MustGenerate(baseSpec())
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("run %d differs from reference", run)
		}
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := MustGenerate(baseSpec())
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("GOMAXPROCS=%d changed the realization", procs)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := MustGenerate(baseSpec())
	s := baseSpec()
	s.Seed = 8
	b := MustGenerate(s)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical realizations")
	}
}

// TestProcessInvariants: the property every realization must satisfy —
// sorted times inside [0, Horizon), document ids in range, and (with a cap)
// no more than MaxDocs arrivals.
func TestProcessInvariants(t *testing.T) {
	specs := []Spec{
		baseSpec(),
		{Rate: 5, Horizon: 50, MeanRequests: 10, Lifetime: 100, Seed: 1},
		{Rate: 100, Horizon: 10, MeanRequests: 3, Lifetime: 0.5, WeightShape: 1.5, Seed: 2},
		{Rate: 10, Horizon: 40, MeanRequests: 20, Lifetime: 2, MaxDocs: 25, Seed: 3},
		{Rate: 0, Horizon: 30, Lifetime: 10, Seed: 4,
			Initial: []Doc{{Weight: 40}, {Weight: 10}, {Weight: 90}}},
	}
	for i, spec := range specs {
		p := MustGenerate(spec)
		if spec.MaxDocs > 0 && len(p.Docs) > spec.MaxDocs {
			t.Errorf("spec %d: %d docs exceed cap %d", i, len(p.Docs), spec.MaxDocs)
		}
		if len(p.Times) != len(p.DocOf) {
			t.Fatalf("spec %d: %d times for %d doc ids", i, len(p.Times), len(p.DocOf))
		}
		if p.NumRequests() != len(p.Times) {
			t.Fatalf("spec %d: NumRequests disagrees", i)
		}
		if !sort.Float64sAreSorted(p.Times) {
			t.Errorf("spec %d: request times not sorted", i)
		}
		for k, tm := range p.Times {
			if tm < 0 || tm >= spec.Horizon {
				t.Fatalf("spec %d: request %d at %v outside [0, %v)", i, k, tm, spec.Horizon)
			}
			id := p.DocOf[k]
			if id < 0 || int(id) >= len(p.Docs) {
				t.Fatalf("spec %d: request %d references doc %d of %d", i, k, id, len(p.Docs))
			}
			if tm < p.Docs[id].Arrival {
				t.Fatalf("spec %d: request %d at %v precedes its document's arrival %v",
					i, k, tm, p.Docs[id].Arrival)
			}
		}
	}
}

// TestDocArrivalStatistics: arrivals are Poisson(Rate) over the horizon —
// count near Rate*Horizon, exponential gaps with mean 1/Rate and CV ~ 1.
func TestDocArrivalStatistics(t *testing.T) {
	spec := Spec{Rate: 50, Horizon: 400, MeanRequests: 1, Lifetime: 1, Seed: 11}
	p := MustGenerate(spec)
	n := len(p.Docs)
	want := spec.Rate * spec.Horizon
	if math.Abs(float64(n)-want)/want > 0.05 {
		t.Errorf("doc count %d vs expected %.0f", n, want)
	}
	var gaps []float64
	for i := 1; i < n; i++ {
		gaps = append(gaps, p.Docs[i].Arrival-p.Docs[i-1].Arrival)
	}
	mean, cv2 := meanCV2(gaps)
	if math.Abs(mean-1/spec.Rate)/(1/spec.Rate) > 0.05 {
		t.Errorf("mean arrival gap %v vs 1/rate %v", mean, 1/spec.Rate)
	}
	if cv2 < 0.9 || cv2 > 1.1 {
		t.Errorf("arrival gap CV^2 %v, want ~1 (exponential)", cv2)
	}
}

// TestRequestCountMoments: for fixed weights a document arriving early in a
// long horizon emits Poisson(V) requests — sample mean and variance of the
// per-document counts must both be near V.
func TestRequestCountMoments(t *testing.T) {
	spec := Spec{Rate: 25, Horizon: 400, MeanRequests: 40, Lifetime: 2, Seed: 13}
	p := MustGenerate(spec)
	counts := make([]float64, len(p.Docs))
	for _, id := range p.DocOf {
		counts[id]++
	}
	// Only documents arriving well before the horizon edge, so truncation
	// (q < 1) is negligible and the count law is exactly Poisson(V).
	var full []float64
	for i, d := range p.Docs {
		if d.Arrival < spec.Horizon-10*spec.Lifetime {
			full = append(full, counts[i])
		}
	}
	if len(full) < 1000 {
		t.Fatalf("only %d untruncated documents", len(full))
	}
	mean, v := meanVar(full)
	if math.Abs(mean-spec.MeanRequests)/spec.MeanRequests > 0.03 {
		t.Errorf("mean requests per doc %v vs V=%v", mean, spec.MeanRequests)
	}
	if math.Abs(v-spec.MeanRequests)/spec.MeanRequests > 0.10 {
		t.Errorf("variance of requests per doc %v vs Poisson variance %v", v, spec.MeanRequests)
	}
}

// TestRequestAgeDistribution: request ages follow the exponential profile —
// for untruncated documents the mean age is the lifetime.
func TestRequestAgeDistribution(t *testing.T) {
	spec := Spec{Rate: 25, Horizon: 400, MeanRequests: 40, Lifetime: 3, Seed: 17}
	p := MustGenerate(spec)
	var sum float64
	var n int
	for k, tm := range p.Times {
		d := p.Docs[p.DocOf[k]]
		if d.Arrival < spec.Horizon-12*spec.Lifetime {
			sum += tm - d.Arrival
			n++
		}
	}
	mean := sum / float64(n)
	if math.Abs(mean-spec.Lifetime)/spec.Lifetime > 0.03 {
		t.Errorf("mean request age %v vs lifetime %v", mean, spec.Lifetime)
	}
}

// TestParetoWeights: WeightShape > 1 draws Pareto weights with the
// requested mean and a heavy tail (max far above the mean).
func TestParetoWeights(t *testing.T) {
	spec := Spec{Rate: 50, Horizon: 400, MeanRequests: 30, Lifetime: 1, WeightShape: 1.8, Seed: 19}
	p := MustGenerate(spec)
	var sum, max float64
	xm := spec.MeanRequests * (spec.WeightShape - 1) / spec.WeightShape
	for _, d := range p.Docs {
		sum += d.Weight
		if d.Weight > max {
			max = d.Weight
		}
		if d.Weight < xm {
			t.Fatalf("weight %v below the Pareto scale %v", d.Weight, xm)
		}
	}
	mean := sum / float64(len(p.Docs))
	if math.Abs(mean-spec.MeanRequests)/spec.MeanRequests > 0.15 {
		t.Errorf("mean weight %v vs requested %v", mean, spec.MeanRequests)
	}
	if max < 5*spec.MeanRequests {
		t.Errorf("max weight %v shows no heavy tail (mean %v)", max, spec.MeanRequests)
	}
}

// TestInitialDocs: initial documents are pinned to arrival 0 and dominate a
// zero-rate process.
func TestInitialDocs(t *testing.T) {
	spec := Spec{Rate: 0, Horizon: 100, Lifetime: 20, Seed: 23,
		Initial: []Doc{{Arrival: 99, Weight: 500}, {Weight: 100}}}
	p := MustGenerate(spec)
	if len(p.Docs) != 2 {
		t.Fatalf("got %d docs, want the 2 initial ones", len(p.Docs))
	}
	for i, d := range p.Docs {
		if d.Arrival != 0 {
			t.Errorf("initial doc %d arrival %v, want forced 0", i, d.Arrival)
		}
	}
	if p.NumRequests() == 0 {
		t.Fatal("initial docs emitted no requests")
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Spec{
		{Rate: -1, Horizon: 1, MeanRequests: 1, Lifetime: 1},
		{Rate: math.Inf(1), Horizon: 1, MeanRequests: 1, Lifetime: 1},
		{Rate: 1, Horizon: 0, MeanRequests: 1, Lifetime: 1},
		{Rate: 1, Horizon: math.Inf(1), MeanRequests: 1, Lifetime: 1},
		{Rate: 1, Horizon: 1, MeanRequests: 0, Lifetime: 1},
		{Rate: 1, Horizon: 1, MeanRequests: 1, Lifetime: 0},
		{Rate: 1, Horizon: 1, MeanRequests: 1, Lifetime: math.NaN()},
		{Rate: 1, Horizon: 1, MeanRequests: 1, Lifetime: 1, WeightShape: 1},
		{Rate: 1, Horizon: 1, MeanRequests: 1, Lifetime: 1, MaxDocs: -2},
		{Rate: 0, Horizon: 1, Lifetime: 1},
		{Rate: 0, Horizon: 1, Lifetime: 1, Initial: []Doc{{Weight: 0}}},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	if err := baseSpec().Validate(); err != nil {
		t.Errorf("base spec rejected: %v", err)
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate did not panic on an invalid spec")
		}
	}()
	MustGenerate(Spec{})
}

// TestPoissonSampler: both branches of the sampler (Knuth below mean 30,
// PTRS above) produce the right mean and variance.
func TestPoissonSampler(t *testing.T) {
	for _, mean := range []float64{0, 0.5, 4, 29.5, 31, 80, 400} {
		rng := rand.New(rand.NewSource(int64(mean*10) + 3))
		n := 20000
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64(poisson(rng, mean))
		}
		m, v := meanVar(samples)
		if mean == 0 {
			if m != 0 {
				t.Errorf("poisson(0) drew %v", m)
			}
			continue
		}
		sigma := math.Sqrt(mean / float64(n))
		if math.Abs(m-mean) > 5*sigma {
			t.Errorf("poisson(%v): mean %v off by > 5 sigma", mean, m)
		}
		if math.Abs(v-mean)/mean > 0.1 {
			t.Errorf("poisson(%v): variance %v, want ~mean", mean, v)
		}
	}
}

func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

func meanCV2(xs []float64) (mean, cv2 float64) {
	m, v := meanVar(xs)
	return m, v / (m * m)
}

// sortByTimeRef is the differential reference for sortByTime: the plain
// stable sort by time, sort.SliceStable over emission indices.
func sortByTimeRef(p *Process) {
	idx := make([]int32, len(p.Times))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return p.Times[idx[a]] < p.Times[idx[b]]
	})
	times := make([]float64, len(p.Times))
	docs := make([]int32, len(p.DocOf))
	for i, j := range idx {
		times[i] = p.Times[j]
		docs[i] = p.DocOf[j]
	}
	p.Times, p.DocOf = times, docs
}

// unsortedStream returns n requests in emission order whose times collide
// often (a grid of `distinct` values, both zeros included), so the
// insertion-order tie-break decides many positions.
func unsortedStream(n, distinct int, seed int64) *Process {
	rng := rand.New(rand.NewSource(seed))
	p := &Process{Times: make([]float64, n), DocOf: make([]int32, n)}
	for i := range p.Times {
		p.Times[i] = float64(rng.Intn(distinct)) / 8
		if p.Times[i] == 0 && rng.Intn(2) == 0 {
			p.Times[i] = math.Copysign(0, -1)
		}
		p.DocOf[i] = int32(rng.Intn(1000))
	}
	return p
}

// TestSortByTimeMatchesStableSort: sortByTime yields exactly the stable sort
// by time, ties and the sign of zero included.
func TestSortByTimeMatchesStableSort(t *testing.T) {
	for _, tc := range []struct{ n, distinct int }{{0, 1}, {1, 1}, {2, 1}, {100, 1}, {5000, 7}, {5000, 400}, {60000, 1 << 30}} {
		got, want := unsortedStream(tc.n, tc.distinct, 5), unsortedStream(tc.n, tc.distinct, 5)
		sortByTime(got)
		sortByTimeRef(want)
		if !sameStream(got, want) {
			t.Errorf("n=%d, %d distinct times: sortByTime differs from the stable sort", tc.n, tc.distinct)
		}
	}
}

// FuzzSortByTime: for any stream of non-NaN times, sortByTime matches the
// stable reference bit for bit — DocOf order and every time's Float64bits,
// so a -0 never trades places with a +0. The input is a little-endian
// float64 sequence; DocOf[i] = i exposes the permutation.
func FuzzSortByTime(f *testing.F) {
	f.Add(floatBytes())
	f.Add(floatBytes(3))
	f.Add(floatBytes(2, 1))
	f.Add(floatBytes(5, 5, 5, 5, 5, 5, 5, 5, 5))
	f.Add(floatBytes(0, math.Copysign(0, -1), 1, 0, math.Copysign(0, -1), 1, 0))
	// 48 times of a spread, then the same with one huge outlier (every
	// other time falls in bucket 0, a crowded bucket), with three more
	// copies of the maximum, and scaled to subnormals (nb/maxT overflows:
	// one crowded bucket).
	spread, subnormal := make([]float64, 48), make([]float64, 48)
	for i := range spread {
		spread[i] = float64((i*29)%48) / 7
		subnormal[i] = float64((i*29)%5) * math.SmallestNonzeroFloat64
	}
	f.Add(floatBytes(spread...))
	f.Add(floatBytes(append(spread, 1e300)...))
	top := slices.Max(spread)
	f.Add(floatBytes(append(spread, top, top, top)...))
	f.Add(floatBytes(subnormal...))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &Process{}
		for ; len(data) >= 8; data = data[8:] {
			if x := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(x) {
				p.Times = append(p.Times, x)
				p.DocOf = append(p.DocOf, int32(len(p.DocOf)))
			}
		}
		got, want := cloneStream(p), cloneStream(p)
		sortByTime(got)
		sortByTimeRef(want)
		if !sameStream(got, want) {
			t.Fatalf("sortByTime(%v) = %v, %v; stable sort %v, %v", p.Times, got.Times, got.DocOf, want.Times, want.DocOf)
		}
	})
}

func floatBytes(xs ...float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func cloneStream(p *Process) *Process {
	return &Process{Times: slices.Clone(p.Times), DocOf: slices.Clone(p.DocOf)}
}

// sameStream compares two streams bit for bit; reflect.DeepEqual would take
// -0 for +0.
func sameStream(a, b *Process) bool {
	if len(a.Times) != len(b.Times) || !slices.Equal(a.DocOf, b.DocOf) {
		return false
	}
	for i := range a.Times {
		if math.Float64bits(a.Times[i]) != math.Float64bits(b.Times[i]) {
			return false
		}
	}
	return true
}

// TestRequestLimit: a realization past the int32 index space is refused —
// before anything is drawn when its expected size is over the limit, and
// while drawing when the drawn count passes it.
func TestRequestLimit(t *testing.T) {
	huge := Spec{Rate: 2.25, Horizon: 400, MeanRequests: 1e9, Lifetime: 10, MaxDocs: 1000, Seed: 1}
	if _, err := Generate(huge); err == nil || !strings.Contains(err.Error(), "expected requests exceed") {
		t.Errorf("Generate(%+v) = %v, want the expected-size error", huge, err)
	}
	// One document expecting 1000 requests: a limit equal to its mean
	// passes the pre-check, and the Poisson draw then passes the limit.
	one := Spec{Rate: 0, Horizon: 1e6, Lifetime: 1, Initial: []Doc{{Weight: 1000}}}
	refused := 0
	for seed := int64(0); seed < 20; seed++ {
		one.Seed = seed
		p, err := emit(one, 1000)
		switch {
		case err != nil && !strings.Contains(err.Error(), "realization passed"):
			t.Fatalf("seed %d: %v", seed, err)
		case err != nil:
			refused++
		case p.NumRequests() > 1000:
			t.Fatalf("seed %d: %d requests past the limit of 1000", seed, p.NumRequests())
		}
	}
	if refused == 0 {
		t.Error("no seed drew past the limit; the in-draw check went untested")
	}
}

// observed16Spec is the shot-noise spec the observed16 bench workload
// generates (churn:files=20000,filekb=16,reqs=1200000,lifetime=10): the
// trace defaults horizon 400, document rate 0.9*files/horizon and the mean
// weight that makes the realization 15 % longer than the request count.
func observed16Spec() Spec {
	const files, reqs, horizon, lifetime = 20000, 1_200_000, 400.0, 10.0
	rate := 0.9 * files / horizon
	eff := horizon + lifetime*math.Expm1(-horizon/lifetime)
	return Spec{Rate: rate, Horizon: horizon, MeanRequests: 1.15 * reqs / (rate * eff),
		Lifetime: lifetime, MaxDocs: files, Seed: 11}
}

func BenchmarkGenerate(b *testing.B) {
	spec := observed16Spec()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortByTime sorts the emission-order stream of observed16Spec,
// the input Generate hands to sortByTime.
func BenchmarkSortByTime(b *testing.B) {
	stream, err := emit(observed16Spec(), math.MaxInt32)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		sort func(*Process)
	}{{"bucket", sortByTime}, {"stable-ref", sortByTimeRef}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := cloneStream(stream)
				b.StartTimer()
				bc.sort(p)
			}
		})
	}
}

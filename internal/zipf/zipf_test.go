package zipf

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestHarmonicSmall(t *testing.T) {
	// H(1, 4) = 1 + 1/2 + 1/3 + 1/4 = 25/12
	if got := Harmonic(1, 4); math.Abs(got-25.0/12.0) > 1e-12 {
		t.Fatalf("Harmonic(1,4) = %v, want %v", got, 25.0/12.0)
	}
	// H(0, n) = n
	if got := Harmonic(0, 10); math.Abs(got-10) > 1e-12 {
		t.Fatalf("Harmonic(0,10) = %v, want 10", got)
	}
	// H(2, 3) = 1 + 1/4 + 1/9
	if got := Harmonic(2, 3); math.Abs(got-(1+0.25+1.0/9)) > 1e-12 {
		t.Fatalf("Harmonic(2,3) = %v", got)
	}
	if Harmonic(1, 0) != 0 {
		t.Fatal("Harmonic(_, 0) must be 0")
	}
}

func TestHarmonicLargeMatchesAsymptotic(t *testing.T) {
	// For alpha = 1: H(n) ~ ln(n) + gamma.
	const gamma = 0.5772156649015329
	n := int64(10_000_000)
	want := math.Log(float64(n)) + gamma + 1/(2*float64(n))
	if got := Harmonic(1, n); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Harmonic(1,1e7) = %v, want %v", got, want)
	}
}

func TestHarmonicEulerMaclaurinContinuity(t *testing.T) {
	// The switch from exact summation to the tail expansion must be smooth:
	// compare against brute force just above the exact limit.
	n := int64(exactLimit + 1000)
	for _, alpha := range []float64{0.6, 0.78, 1.0, 1.08, 1.5} {
		var brute float64
		for i := n; i >= 1; i-- {
			brute += math.Pow(float64(i), -alpha)
		}
		got := Harmonic(alpha, n)
		if math.Abs(got-brute)/brute > 1e-10 {
			t.Fatalf("alpha=%v: Harmonic=%v brute=%v", alpha, got, brute)
		}
	}
}

func TestZBoundaries(t *testing.T) {
	if Z(1, 0, 100) != 0 {
		t.Fatal("Z(n=0) must be 0")
	}
	if Z(1, 100, 100) != 1 {
		t.Fatal("Z(n=F) must be 1")
	}
	if Z(1, 200, 100) != 1 {
		t.Fatal("Z(n>F) must be 1")
	}
	if Z(1, 10, 0) != 0 {
		t.Fatal("Z with no files must be 0")
	}
}

// Property: Z is nondecreasing in n and nonincreasing in F.
func TestPropertyZMonotonic(t *testing.T) {
	prop := func(a uint8, n1, n2, f uint16) bool {
		alpha := 0.5 + float64(a%100)/100 // [0.5, 1.5)
		files := int64(f%5000) + 10
		na, nb := int64(n1)%files, int64(n2)%files
		if na > nb {
			na, nb = nb, na
		}
		if Z(alpha, na, files) > Z(alpha, nb, files)+1e-12 {
			return false
		}
		return Z(alpha, na, files) >= Z(alpha, na, files*2)-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveFilesInverse(t *testing.T) {
	for _, alpha := range []float64{0.78, 0.91, 1.0, 1.08} {
		for _, files := range []int64{5500, 35885, 1_000_000} {
			n := files / 7
			target := Z(alpha, n, files)
			got := SolveFiles(alpha, n, target)
			// The inverse should recover F within the tolerance of float
			// comparisons on a discrete function.
			if math.Abs(Z(alpha, n, got)-target) > 1e-9 {
				t.Fatalf("alpha=%v files=%d: SolveFiles gave %d with z=%v, want z=%v",
					alpha, files, got, Z(alpha, n, got), target)
			}
		}
	}
}

func TestSolveFilesEdges(t *testing.T) {
	if got := SolveFiles(1, 100, 1.0); got != 100 {
		t.Fatalf("target 1 should return n, got %d", got)
	}
	// Very low target: huge catalog, must not overflow or loop forever.
	got := SolveFiles(1, 10, 0.05)
	if got <= 10 {
		t.Fatalf("low target should give huge F, got %d", got)
	}
}

func TestSolveFilesPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero-n":      func() { SolveFiles(1, 0, 0.5) },
		"zero-target": func() { SolveFiles(1, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: SolveFiles returns an F whose z is within one discrete step of
// the target for realistic hit-rate targets.
func TestPropertySolveFilesApproximatesTarget(t *testing.T) {
	prop := func(a, nn uint8, tt uint16) bool {
		alpha := 0.6 + float64(a%90)/100
		n := int64(nn)%20000 + 100
		target := 0.1 + 0.89*float64(tt)/65535
		f := SolveFiles(alpha, n, target)
		got := Z(alpha, n, f)
		if limit := Z(alpha, n, int64(1)<<50); target < limit {
			// Unreachable target (alpha > 1 has a positive z limit as
			// F -> infinity): the documented behavior is to return the
			// search upper bound.
			return f == int64(1)<<50
		}
		// Discrete step near the answer bounds the error.
		step := Z(alpha, n, f) - Z(alpha, n, f+1)
		return math.Abs(got-target) <= math.Max(step*2, 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistProbabilitiesSumToOne(t *testing.T) {
	d := New(0.8, 1000)
	var sum float64
	for i := int64(1); i <= d.F; i++ {
		sum += d.P(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if d.P(0) != 0 || d.P(d.F+1) != 0 {
		t.Fatal("out-of-range ranks must have probability 0")
	}
}

func TestDistCDFMatchesZ(t *testing.T) {
	d := New(1.0, 5000)
	for _, n := range []int64{1, 10, 100, 2500, 5000} {
		want := Z(1.0, n, 5000)
		if got := d.CDF(n); math.Abs(got-want) > 1e-9 {
			t.Fatalf("CDF(%d) = %v, want %v", n, got, want)
		}
	}
	if d.CDF(0) != 0 || d.CDF(9999) != 1 {
		t.Fatal("CDF boundaries wrong")
	}
}

func TestDistSampleFrequencies(t *testing.T) {
	d := New(1.0, 100)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int64, 101)
	const n = 500000
	for i := 0; i < n; i++ {
		counts[d.Sample(rng)]++
	}
	// Rank 1 should appear with probability P(1) ~ 1/H(100).
	want := d.P(1)
	got := float64(counts[1]) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("rank-1 frequency = %v, want about %v", got, want)
	}
	// Every sample must be in range.
	if counts[0] != 0 {
		t.Fatal("sampled rank 0")
	}
}

func TestDistPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no-files":       func() { New(1, 0) },
		"negative-alpha": func() { New(-0.5, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFitAlphaRecoversExponent(t *testing.T) {
	// Generate ideal Zipf counts and check the regression recovers alpha.
	for _, alpha := range []float64{0.78, 1.0, 1.08} {
		counts := make([]int64, 2000)
		for i := range counts {
			counts[i] = int64(1e7 * math.Pow(float64(i+1), -alpha) / Harmonic(alpha, 2000))
		}
		got := FitAlpha(counts)
		if math.Abs(got-alpha) > 0.05 {
			t.Fatalf("FitAlpha = %v, want about %v", got, alpha)
		}
	}
}

func TestFitAlphaDegenerate(t *testing.T) {
	if FitAlpha(nil) != 0 {
		t.Fatal("FitAlpha(nil) must be 0")
	}
	if FitAlpha([]int64{5}) != 0 {
		t.Fatal("FitAlpha with one file must be 0")
	}
}

func BenchmarkHarmonicLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Harmonic(0.91, 1<<40)
	}
}

func BenchmarkSample(b *testing.B) {
	d := New(0.78, 35885)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(rng)
	}
}

// newSerialRef is New as one serial loop, the form every pinned trace was
// generated with: each power added to the running sum as it is computed,
// then every entry divided by the total.
func newSerialRef(alpha float64, files int64) *Dist {
	cdf := make([]float64, files)
	var sum float64
	for i := int64(0); i < files; i++ {
		sum += math.Pow(float64(i+1), -alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[files-1] = 1
	d := &Dist{Alpha: alpha, F: files, norm: sum, cdf: cdf}
	d.buildGuide()
	return d
}

// TestNewMatchesSerialReference: New's chunked powers and normalisation
// leave every CDF bit, the guide table, norm and P as the serial loop has
// them, whatever GOMAXPROCS. 50 000 files are 12 pieces, taken by 1, 2 and
// 8 goroutines at these settings.
func TestNewMatchesSerialReference(t *testing.T) {
	const files = 50_000
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, alpha := range []float64{0, 0.6, 0.78, 1, 1.5} {
		want := newSerialRef(alpha, files)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := New(alpha, files)
			if math.Float64bits(got.norm) != math.Float64bits(want.norm) {
				t.Fatalf("alpha=%v procs=%d: norm %v, serial %v", alpha, procs, got.norm, want.norm)
			}
			for i := range want.cdf {
				if math.Float64bits(got.cdf[i]) != math.Float64bits(want.cdf[i]) {
					t.Fatalf("alpha=%v procs=%d: cdf[%d] = %v, serial %v", alpha, procs, i, got.cdf[i], want.cdf[i])
				}
			}
			if !slices.Equal(got.guide, want.guide) {
				t.Fatalf("alpha=%v procs=%d: guide table differs from the serial one", alpha, procs)
			}
			for r := int64(1); r <= files; r++ {
				if math.Float64bits(got.P(r)) != math.Float64bits(want.P(r)) {
					t.Fatalf("alpha=%v procs=%d: P(%d) = %v, serial %v", alpha, procs, r, got.P(r), want.P(r))
				}
			}
		}
	}
}

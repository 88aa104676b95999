package zipf

import (
	"math"
	"math/rand"
	"testing"
)

// TestLocateMatchesReference pins the guide-table inversion to the
// binary-search reference over seeded uniform draws across a grid of
// shapes: every float64 the sampler can consume must land on the same rank.
func TestLocateMatchesReference(t *testing.T) {
	for _, alpha := range []float64{0, 0.5, 0.8, 1, 1.5, 3} {
		for _, files := range []int64{1, 2, 3, 17, 1000, 100_000} {
			d := New(alpha, files)
			rng := rand.New(rand.NewSource(files*1000 + int64(alpha*10)))
			for n := 0; n < 20_000; n++ {
				u := rng.Float64()
				got, want := d.locate(u), d.locateRef(u)
				if got != want {
					t.Fatalf("alpha=%v F=%d u=%v: locate=%d ref=%d", alpha, files, u, got, want)
				}
			}
		}
	}
}

// TestLocateEdges exercises the inputs where an inexact guide table would
// betray itself: u=0, u just below 1, exact CDF values (the search must
// return the first index at or above u, including on plateaus), and the
// half-ulp neighborhood of every cutpoint threshold j/K.
func TestLocateEdges(t *testing.T) {
	for _, alpha := range []float64{0, 0.8, 3} {
		for _, files := range []int64{1, 2, 5, 1024} {
			d := New(alpha, files)
			us := []float64{0, math.SmallestNonzeroFloat64, 0.5, 1 - 1e-16, math.Nextafter(1, 0)}
			// Exact CDF values and their float neighbors.
			for i := 0; i < len(d.cdf); i += 1 + len(d.cdf)/64 {
				c := d.cdf[i]
				us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
			}
			// Cutpoint thresholds j/K and their neighbors: the one place the
			// guide's lower bound could overshoot by a rounding error.
			k := float64(len(d.guide) - 1)
			for j := 0; j < len(d.guide); j += 1 + len(d.guide)/64 {
				v := float64(j) / k
				us = append(us, v, math.Nextafter(v, 0), math.Nextafter(v, 1))
			}
			for _, u := range us {
				if u < 0 || u >= 1 {
					continue
				}
				got, want := d.locate(u), d.locateRef(u)
				if got != want {
					t.Fatalf("alpha=%v F=%d u=%v: locate=%d ref=%d", alpha, files, u, got, want)
				}
			}
		}
	}
}

// TestLocatePlateau forces a CDF plateau — at alpha=3 over a large catalog
// the tail probabilities vanish below one ulp, so consecutive CDF entries
// are equal — and checks both inversions agree on the first index of it.
func TestLocatePlateau(t *testing.T) {
	d := New(3, 200_000)
	plateau := -1
	for i := 1; i < len(d.cdf); i++ {
		if d.cdf[i] == d.cdf[i-1] {
			plateau = i
			break
		}
	}
	if plateau < 0 {
		t.Skip("no CDF plateau at this shape")
	}
	u := d.cdf[plateau]
	got, want := d.locate(u), d.locateRef(u)
	if got != want {
		t.Fatalf("plateau at %d, u=%v: locate=%d ref=%d", plateau, u, got, want)
	}
	if want > plateau {
		t.Fatalf("reference skipped past the first plateau index: ref=%d plateau=%d", want, plateau)
	}
}

// TestSampleMatchesReferenceStream replays one shared rng stream through
// Sample and checks the ranks equal the reference inversion applied to an
// identical stream: Sample consumes exactly one Float64 per draw.
func TestSampleMatchesReferenceStream(t *testing.T) {
	d := New(0.8, 5000)
	a, b := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	for n := 0; n < 10_000; n++ {
		got := d.Sample(a)
		want := int64(d.locateRef(b.Float64()) + 1)
		if got != want {
			t.Fatalf("draw %d: Sample=%d ref=%d", n, got, want)
		}
	}
}

// TestPTailPrecision is the regression test for the catastrophic
// cancellation in the old adjacent-CDF-difference P: deep in the tail both
// CDF values are within an ulp of 1 and the difference collapses to 0 or a
// single ulp. The direct form must stay within a few ulps of the exact
// ratio at every rank.
func TestPTailPrecision(t *testing.T) {
	const files = 1_000_000
	for _, alpha := range []float64{0.8, 1, 2} {
		d := New(alpha, files)
		norm := Harmonic(alpha, files)
		for _, rank := range []int64{1, 2, files / 2, files - 1, files} {
			got := d.P(rank)
			want := math.Pow(float64(rank), -alpha) / norm
			if got <= 0 {
				t.Fatalf("alpha=%v rank=%d: P collapsed to %v", alpha, rank, got)
			}
			if rel := math.Abs(got-want) / want; rel > 1e-9 {
				t.Fatalf("alpha=%v rank=%d: P=%v want=%v rel=%v", alpha, rank, got, want, rel)
			}
		}
		// The old formulation lost every significant digit here; make sure
		// adjacent tail ranks still have strictly decreasing, positive mass.
		if !(d.P(files-1) > d.P(files)) || d.P(files) <= 0 {
			t.Fatalf("alpha=%v: tail not strictly decreasing: P(F-1)=%v P(F)=%v",
				alpha, d.P(files-1), d.P(files))
		}
	}
}

// TestPSumsToOne checks the direct form still normalizes.
func TestPSumsToOne(t *testing.T) {
	d := New(0.8, 10_000)
	var sum float64
	for r := int64(d.F); r >= 1; r-- { // small terms first
		sum += d.P(r)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum of P = %v", sum)
	}
}

// sampleRefBench draws via the binary-search reference, for the growth
// comparison against the guide-table benches below.
func sampleRefBench(b *testing.B, files int64) {
	d := New(0.8, files)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += d.locateRef(rng.Float64())
	}
	refSink = sink
}

var refSink int

func BenchmarkSampleGuide10k(b *testing.B) { sampleGuideBench(b, 10_000) }
func BenchmarkSampleGuide1M(b *testing.B)  { sampleGuideBench(b, 1_000_000) }
func BenchmarkSampleRef10k(b *testing.B)   { sampleRefBench(b, 10_000) }
func BenchmarkSampleRef1M(b *testing.B)    { sampleRefBench(b, 1_000_000) }

func sampleGuideBench(b *testing.B, files int64) {
	d := New(0.8, files)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += d.Sample(rng)
	}
	refSink = int(sink)
}

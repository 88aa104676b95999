package trace

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/zipf"
)

// rankPowSeedBetas are the exponents where math.Pow's branches meet: the
// integers of the bisection bracket, its special cases ±0.5 and 0, a
// fraction too small to move Exp, and fractions at and one ulp either side
// of the one-half fold.
func rankPowSeedBetas() []float64 {
	betas := []float64{0.5, -0.5, 0, 1e-300, -1e-300}
	for k := -3.0; k <= 5; k++ {
		betas = append(betas, k)
		if k < 5 {
			h := k + 0.5
			betas = append(betas, math.Nextafter(h, math.Inf(-1)), h, math.Nextafter(h, math.Inf(1)))
		}
	}
	return betas
}

// calibrationBetas returns every beta the size calibration of spec
// evaluates, in order, from the inputs generateStationary builds and the
// ratio solveBeta bisects.
func calibrationBetas(spec GenSpec) []float64 {
	spec = spec.withDefaults()
	pop := zipf.New(spec.Alpha, int64(spec.Files))
	pEff, logs := make([]float64, spec.Files), make([]float64, spec.Files)
	for i := range pEff {
		pEff[i] = (1 - spec.HeadBoost) * pop.P(int64(i+1))
		if i < spec.HeadFiles {
			pEff[i] += spec.HeadBoost / float64(spec.HeadFiles)
		}
		logs[i] = math.Log(float64(i + 1))
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	noise := make([]float64, spec.Files)
	for i := range noise {
		noise[i] = math.Exp(spec.SizeSigma*rng.NormFloat64() - spec.SizeSigma*spec.SizeSigma/2)
	}
	terms := make([]float64, spec.Files)
	var betas []float64
	bisectBeta(func(beta float64) float64 {
		betas = append(betas, beta)
		fillTerms(terms, noise, logs, beta)
		var weighted, uniform float64
		for i, s := range terms {
			weighted += pEff[i] * s
			uniform += s
		}
		uniform /= float64(len(noise))
		return weighted / uniform
	}, spec.AvgReqKB/spec.AvgFileKB)
	return betas
}

// TestRankPowMatchesMathPow holds the calibration's power kernel to
// math.Pow bit for bit, at every exponent the bisection visits for the
// pinned specs and for the miss16 benchmark catalogue (10^6 files, target
// 5/6, seed 11), plus the seed set of FuzzRankPow, over ranks 1..10^6
// (1..2·10^5 under -short).
func TestRankPowMatchesMathPow(t *testing.T) {
	specs := append(stationaryGoldenSpecs(), GenSpec{Name: "miss16", Files: 1_000_000,
		AvgFileKB: 6, AvgReqKB: 5, Alpha: 0.8, LocalityP: 0.3, Requests: 1, Seed: 11})
	betas := map[float64]bool{}
	for _, spec := range specs {
		visited := calibrationBetas(spec)
		if len(visited) != 62 {
			t.Errorf("%s: the bisection evaluated %d exponents, want 62", spec.Name, len(visited))
		}
		for _, b := range visited {
			betas[b] = true
		}
	}
	for _, b := range rankPowSeedBetas() {
		betas[b] = true
	}
	ranks := 1_000_000
	if testing.Short() {
		ranks = 200_000
	}
	logs := make([]float64, ranks)
	for i := range logs {
		logs[i] = math.Log(float64(i + 1))
	}
	for beta := range betas {
		k := newRankPow(beta)
		mismatches := 0
		for n := 1; n <= ranks; n++ {
			got, want := k.pow(n, logs[n-1]), math.Pow(float64(n), beta)
			if math.Float64bits(got) != math.Float64bits(want) {
				if mismatches == 0 {
					t.Errorf("beta %v (%#x), rank %d: %v, math.Pow %v", beta, math.Float64bits(beta), n, got, want)
				}
				mismatches++
			}
		}
		if mismatches > 0 {
			t.Errorf("beta %v: %d of %d ranks differ from math.Pow", beta, mismatches, ranks)
		}
	}
	t.Logf("%d exponents x %d ranks", len(betas), ranks)
}

// FuzzRankPow compares the power kernel with math.Pow bit for bit, for
// ranks in [1, 10^7] and exponents in [-3, 5].
func FuzzRankPow(f *testing.F) {
	for _, beta := range rankPowSeedBetas() {
		for _, r := range []uint64{0, 1, 2, 999_999, 9_999_999} {
			f.Add(r, beta)
		}
	}
	f.Fuzz(func(t *testing.T, r uint64, beta float64) {
		if !(beta >= -3 && beta <= 5) {
			t.Skip()
		}
		n := 1 + int(r%10_000_000)
		got, want := newRankPow(beta).pow(n, math.Log(float64(n))), math.Pow(float64(n), beta)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d^%v (%#x) = %v, math.Pow %v", n, beta, math.Float64bits(beta), got, want)
		}
	})
}

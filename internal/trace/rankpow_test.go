package trace

import (
	"math"
	"testing"
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
// evaluates, in order — Halley, straddle and halving steps — followed by
// the popularity exponent -alpha its pEff table is raised to.
func calibrationBetas(spec GenSpec) []float64 {
	pEff, noise, logs, target := stationaryInputs(spec)
	_, visited := solveBeta(pEff, noise, logs, make([]float64, len(noise)), target)
	return append(visited, -spec.Alpha)
}

// TestRankPowMatchesMathPow holds the calibration's power kernel to
// math.Pow bit for bit, at every exponent the calibration visits for the
// pinned specs and for the bench catalogues (miss16's 10^6 files at seed
// 11, paper16's clarknet), their popularity exponents, and the seed set of
// FuzzRankPow, over ranks 1..10^6 (1..2·10^5 under -short).
func TestRankPowMatchesMathPow(t *testing.T) {
	clarknet, err := PaperTrace("clarknet")
	if err != nil {
		t.Fatal(err)
	}
	specs := append(stationaryGoldenSpecs(), miss16Spec(11), clarknet)
	betas := map[float64]bool{}
	for _, spec := range specs {
		visited := calibrationBetas(spec)
		if len(visited) > 62+2+1 {
			t.Errorf("%s: the calibration evaluated %d exponents, want at most 64", spec.Name, len(visited)-1)
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

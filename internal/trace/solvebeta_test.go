package trace

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/chunk"
	"repro/internal/zipf"
)

// solveBetaRef is the serial calibration solveBeta replaced, kept verbatim:
// popularity recomputed inside every evaluation, one loop, no buffer. Every
// pinned trace was generated by it, so solveBeta must return its exact bits.
func solveBetaRef(pEff func(int64) float64, noise []float64, target float64) float64 {
	ratio := func(beta float64) float64 {
		var weighted, uniform float64
		for i, x := range noise {
			s := math.Pow(float64(i+1), beta) * x
			weighted += pEff(int64(i+1)) * s
			uniform += s
		}
		uniform /= float64(len(noise))
		return weighted / uniform
	}
	lo, hi := -3.0, 5.0
	if ratio(lo) < target { // even strongly inverted sizes cannot reach it
		return lo
	}
	if ratio(hi) > target {
		return hi
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if ratio(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// rankLogs returns math.Log(i+1) for i < n, the table solveBeta reads.
func rankLogs(n int) []float64 {
	logs := make([]float64, n)
	for i := range logs {
		logs[i] = math.Log(float64(i + 1))
	}
	return logs
}

// miss16Spec is the trace spec of the bench workloads miss16, gossip1024
// and chash1024 at the given seed.
func miss16Spec(seed int64) GenSpec {
	return GenSpec{Name: fmt.Sprintf("miss16/seed=%d", seed), Files: 1_000_000, AvgFileKB: 6,
		AvgReqKB: 5, Alpha: 0.8, LocalityP: 0.3, Requests: 1, Seed: seed}
}

// stationaryInputs returns the calibration inputs Generate builds for a
// stationary spec, and its target ratio.
func stationaryInputs(spec GenSpec) (pEff, noise, logs []float64, target float64) {
	spec = spec.withDefaults()
	pEff, noise, logs = calibrationTables(spec, rand.New(rand.NewSource(spec.Seed)))
	return pEff, noise, logs, spec.AvgReqKB / spec.AvgFileKB
}

// zipfP is the Zipf probability of rank as the serial generator computed
// it, zipf.(*Dist).P: rank^-alpha over the rank-order sum of those powers.
func zipfP(alpha float64, files int) func(rank int64) float64 {
	return zipf.New(alpha, int64(files)).P
}

// referenceInputs builds the same inputs the way the serial generator did,
// one zipfP and one math.Exp per rank, inline with each normal draw.
func referenceInputs(spec GenSpec) (pEff func(int64) float64, noise []float64) {
	spec = spec.withDefaults()
	pop := zipfP(spec.Alpha, spec.Files)
	pEff = func(rank int64) float64 {
		p := (1 - spec.HeadBoost) * pop(rank)
		if rank <= int64(spec.HeadFiles) {
			p += spec.HeadBoost / float64(spec.HeadFiles)
		}
		return p
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	noise = make([]float64, spec.Files)
	for i := range noise {
		noise[i] = math.Exp(spec.SizeSigma*rng.NormFloat64() - spec.SizeSigma*spec.SizeSigma/2)
	}
	return pEff, noise
}

// TestCalibrationTablesMatchReference: the popularity table raised through
// rankPow and normalised by its own rank-order sum, and the noise
// exponentiated in chunks after a serial draw, hold the bits of zipfP and
// of the inline math.Exp — at alpha 0 (math.Pow's y = 0 case), 0.5 (its
// Sqrt case), 1 and the golden and bench exponents, head boost on and off.
func TestCalibrationTablesMatchReference(t *testing.T) {
	specs := append(stationaryGoldenSpecs(), miss16Spec(11),
		GenSpec{Name: "alpha0", Files: 9000, AvgFileKB: 1, Alpha: 0, Seed: 1},
		GenSpec{Name: "alpha0.5", Files: 9000, AvgFileKB: 1, Alpha: 0.5, HeadBoost: 0.3, Seed: 2},
		GenSpec{Name: "alpha1-sigma3", Files: 9000, AvgFileKB: 1, Alpha: 1, SizeSigma: 3, Seed: 3})
	for _, procs := range []int{1, 3} {
		setProcs(t, procs)
		for _, spec := range specs {
			pEff, noise, logs, _ := stationaryInputs(spec)
			refP, refNoise := referenceInputs(spec)
			for i := range noise {
				if math.Float64bits(pEff[i]) != math.Float64bits(refP(int64(i+1))) ||
					math.Float64bits(noise[i]) != math.Float64bits(refNoise[i]) ||
					math.Float64bits(logs[i]) != math.Float64bits(math.Log(float64(i+1))) {
					t.Fatalf("%s procs=%d rank %d: pEff %v noise %v, reference %v %v",
						spec.Name, procs, i+1, pEff[i], noise[i], refP(int64(i+1)), refNoise[i])
				}
			}
		}
	}
}

// solveBetaCase is one calibration of the differential corpus.
type solveBetaCase struct {
	name   string
	table  []float64 // pEff by rank
	noise  []float64
	target float64
}

func (c solveBetaCase) check(t *testing.T) (evaluations int) {
	t.Helper()
	want := solveBetaRef(func(rank int64) float64 { return c.table[rank-1] }, c.noise, c.target)
	got, visited := solveBeta(c.table, c.noise, rankLogs(len(c.noise)), make([]float64, len(c.noise)), c.target)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: beta = %v (%#x), serial reference %v (%#x)",
			c.name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if len(visited) > 62+2 {
		t.Errorf("%s: %d evaluations, want at most 64", c.name, len(visited))
	}
	return len(visited)
}

// corpusCase draws one random calibration: F in [1, 5000], alpha in
// [0, 2.5] (0 every tenth case), sigma up to 3, head boost on every other
// case, and a target that is 1, saturates either end, or lies in between.
func corpusCase(k int, rng *rand.Rand) solveBetaCase {
	spec := GenSpec{Files: 1 + rng.Intn(5000), AvgFileKB: 1, Alpha: 2.5 * rng.Float64(),
		SizeSigma: 3 * rng.Float64(), Seed: int64(k)}
	if k%10 == 0 {
		spec.Alpha = 0
	}
	if k%2 == 1 {
		spec.HeadBoost, spec.HeadFiles = 0.9*rng.Float64(), 1+rng.Intn(spec.Files)
	}
	spec.AvgReqKB = [...]float64{1, 1e9, 1e-9}[min(k%5, 2)]
	if k%5 > 2 {
		spec.AvgReqKB = 0.2 + 2*rng.Float64()
	}
	spec.Name = fmt.Sprintf("corpus-%d/F=%d/alpha=%.3g/sigma=%.3g/boost=%.3g/target=%.3g",
		k, spec.Files, spec.Alpha, spec.SizeSigma, spec.HeadBoost, spec.AvgReqKB)
	return specCase(spec)
}

func specCase(spec GenSpec) solveBetaCase {
	pEff, noise, _, target := stationaryInputs(spec)
	return solveBetaCase{name: spec.Name, table: pEff, noise: noise, target: target}
}

// TestSolveBetaCorpus holds the certified calibration to the serial
// reference bit for bit over 400 random specs, the seven goldens and the
// miss16 catalogue at seeds 11 and 901-903 (those four not under -short),
// and pins its evaluation counts: at most 62 + 2 anywhere, at most 40 for
// miss16 at seed 11, and exactly the reference's 62 when pEff is not
// non-increasing or noise is not finite, where nothing can be certified.
func TestSolveBetaCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	total, cases := 0, 0
	for k := 0; k < 400; k++ {
		total += corpusCase(k, rng).check(t)
		cases++
	}
	for _, spec := range stationaryGoldenSpecs() {
		total += specCase(spec).check(t)
		cases++
	}
	t.Logf("%d cases, %.1f evaluations each on average", cases, float64(total)/float64(cases))
	bump := specCase(GenSpec{Name: "non-monotone", Files: 3000, AvgFileKB: 1, AvgReqKB: 0.8, Alpha: 0.8, Seed: 5})
	bump.table[2000] = bump.table[0]
	inf := specCase(GenSpec{Name: "infinite-noise", Files: 3000, AvgFileKB: 1, AvgReqKB: 0.8, Alpha: 0.8, Seed: 6})
	inf.noise[17] = math.Inf(1)
	for _, c := range []solveBetaCase{bump, inf} {
		if n := c.check(t); n != 62 {
			t.Errorf("%s: %d evaluations, want the reference's 62", c.name, n)
		}
	}

	if testing.Short() {
		return
	}
	// The serial reference takes seconds a seed here; the seeds run in parallel.
	for _, seed := range []int64{11, 901, 902, 903} {
		t.Run(fmt.Sprintf("miss16/seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			n := specCase(miss16Spec(seed)).check(t)
			t.Logf("%d evaluations", n)
			if seed == 11 && n > 40 {
				t.Errorf("%d evaluations, want at most 40", n)
			}
		})
	}
}

// FuzzSolveBeta holds the certified calibration to the serial reference bit
// for bit on random stationary specs of up to 2048 files.
func FuzzSolveBeta(f *testing.F) {
	f.Add(uint16(3000), 0.8, 1.0, 0.0, uint16(0), 0.8, int64(11))
	f.Add(uint16(0), 0.0, 0.5, 0.0, uint16(0), 1.0, int64(1))
	f.Add(uint16(500), 2.5, 3.0, 0.6, uint16(40), 1e9, int64(2))
	f.Add(uint16(1200), 1.08, 0.2, 0.1, uint16(60), 1e-9, int64(3))
	f.Fuzz(func(t *testing.T, files uint16, alpha, sigma, boost float64, headFiles uint16, target float64, seed int64) {
		if !(alpha >= 0 && alpha <= 4 && sigma >= 0 && sigma <= 4 && boost >= 0 && boost < 1 &&
			target > 0 && target <= 1e12) {
			t.Skip()
		}
		spec := GenSpec{Name: "fuzz", Files: 1 + int(files%2048), AvgFileKB: 1, AvgReqKB: target,
			Alpha: alpha, SizeSigma: sigma, HeadBoost: boost, Seed: seed}
		spec.HeadFiles = 1 + int(headFiles)%spec.Files
		specCase(spec).check(t)
	})
}

// setProcs sets GOMAXPROCS for the rest of the test. More procs than CPUs
// still start that many fill goroutines, which is what the tests vary.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestSolveBetaMatchesSerialReference(t *testing.T) {
	sizes := []int{1, 2, chunk.Min - 1, chunk.Min, chunk.Min + 1,
		2*chunk.Min - 1, 2 * chunk.Min, 3*chunk.Min + 1, 35885}
	if !testing.Short() {
		sizes = append(sizes, 200000)
	}
	returns := map[float64]int{} // reference beta -> cases
	for _, files := range sizes {
		for _, boost := range []float64{0, 0.4} {
			pop := zipfP(0.8, files)
			headFiles := files/20 + 1
			pEff := func(rank int64) float64 {
				p := (1 - boost) * pop(rank)
				if rank <= int64(headFiles) {
					p += boost / float64(headFiles)
				}
				return p
			}
			table := make([]float64, files)
			for i := range table {
				table[i] = pEff(int64(i + 1))
			}
			rng := rand.New(rand.NewSource(int64(files)))
			noise := make([]float64, files)
			for i := range noise {
				noise[i] = math.Exp(rng.NormFloat64() - 0.5)
			}
			// An interior root, then targets no beta in [-3, 5] reaches.
			for _, target := range []float64{5.0 / 6, 1e9, 1e-9} {
				want := solveBetaRef(pEff, noise, target)
				returns[want]++
				for _, procs := range []int{1, 3, 8} {
					t.Run(fmt.Sprintf("F=%d/boost=%v/target=%v/procs=%d", files, boost, target, procs), func(t *testing.T) {
						setProcs(t, procs)
						got, _ := solveBeta(table, noise, rankLogs(files), make([]float64, files), target)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("beta = %v (%#x), serial reference %v (%#x)",
								got, math.Float64bits(got), want, math.Float64bits(want))
						}
					})
				}
			}
		}
	}
	if returns[-3] == 0 || returns[5] == 0 || len(returns) < 3 {
		t.Errorf("reference returns %v: want the lo and hi saturations and an interior root covered", returns)
	}
}

// The clarknet catalogue (35 885 files) is 8 fill pieces, taken by 1, 2 and
// 8 goroutines at these settings; the trace must not be able to tell.
func TestGenerateIndependentOfGOMAXPROCS(t *testing.T) {
	spec, err := PaperTrace("clarknet")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(0.02)
	want := stationaryGoldenSHA256[spec.Name]
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		h := sha256.New()
		if _, err := MustGenerate(spec).WriteTo(h); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("GOMAXPROCS=%d: sha256 %s, pinned %s", procs, got, want)
		}
	}
}

// BenchmarkGenerate times trace set-up at the spec of the bench workloads
// miss16, gossip1024 and chash1024 (F1e6), at a tenth of their catalogue,
// and at observed16's shot-noise churn spec, seed 11. Run it at -cpu 1,2:
// the calibration fill, the Zipf table and the churn times and sort use
// GOMAXPROCS goroutines.
func BenchmarkGenerate(b *testing.B) {
	stationary := func(files int) GenSpec {
		return GenSpec{Files: files, AvgFileKB: 6, AvgReqKB: 5, Alpha: 0.8,
			LocalityP: 0.3, Requests: 600_000, Seed: 11}
	}
	churn, err := ParseGenSpec("churn:files=20000,filekb=16,reqs=1200000,lifetime=10")
	if err != nil {
		b.Fatal(err)
	}
	churn.Seed = 11
	for _, bc := range []struct {
		name string
		spec GenSpec
	}{{"F1e5", stationary(100_000)}, {"F1e6", stationary(1_000_000)}, {"churn-observed16", churn}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(bc.spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

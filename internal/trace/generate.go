package trace

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/cache"
	"repro/internal/shotnoise"
	"repro/internal/zipf"
)

// GenSpec describes a synthetic workload. The defaults of PaperTraces match
// the four traces of Table 2 (Calgary, Clarknet, NASA, Rutgers); arbitrary
// specs allow what-if workloads (e.g. the larger hosting-service working
// sets the paper's introduction motivates).
type GenSpec struct {
	Name      string
	Files     int     // catalog size
	AvgFileKB float64 // mean file size over the catalog
	Requests  int     // number of requests to generate
	AvgReqKB  float64 // mean response size over requests
	Alpha     float64 // Zipf exponent of popularity

	// SizeSigma is the sigma of the lognormal noise multiplied into file
	// sizes; 0 selects the default of 1.0. Real WWW file sizes are heavy
	// tailed; a lognormal body is the standard first-order fit.
	SizeSigma float64

	// LocalityP is the probability that a request re-references one of the
	// LocalityDepth most recent requests instead of sampling the Zipf law.
	// Real traces exhibit temporal locality beyond pure popularity
	// (Arlitt & Williamson); this knob reproduces the sequential-server
	// miss rates the paper reports (9-28% at 32 MB).
	LocalityP     float64
	LocalityDepth int // 0 selects the default of 1000

	// HeadBoost adds extra probability mass to the most popular HeadFiles
	// files: with probability HeadBoost a request picks one of them
	// uniformly instead of sampling the Zipf law. Real WWW traces
	// concentrate more traffic on their hottest documents than their
	// fitted Zipf exponent implies (the fit is dominated by the body);
	// this knob reproduces the per-node hit rates of the paper's
	// multi-node traditional server, where temporal locality is diluted
	// across nodes and concentration is what remains.
	HeadBoost float64
	HeadFiles int // 0 selects the default of Files/20

	// Clients, when positive, tags every request with a client identity.
	// Client activity is itself Zipf-distributed (exponent ClientAlpha,
	// default 1): a few heavy clients dominate, which is what makes DNS
	// translation caching skew load in practice.
	Clients     int
	ClientAlpha float64

	// Mode selects the synthesis family. "" (or "stationary") is the fixed
	// Zipf catalog above. "churn" rotates the hot set under the shot-noise
	// popularity model of internal/shotnoise (Olmos/Graham/Simonian).
	// "diurnal" keeps the stationary content but records a sinusoidal
	// arrival-rate shape for open-loop runs (server.DiurnalSchedule consumes
	// it). "flash" overlays a flash crowd on the stationary stream: one cold
	// file spikes to a large traffic fraction for a bounded window, then
	// decays. Stationary specs never read the fields below and stay
	// byte-identical across this extension (golden_test.go pins them).
	Mode string

	// Shot-noise churn (Mode "churn"), in trace time units. The catalog is
	// the realized document population (capped at Files); AvgReqKB, the
	// locality knobs, and HeadBoost do not apply — the model supplies its
	// own temporal structure.
	Horizon     float64 // synthesis window (default 400)
	DocRate     float64 // document arrivals per time unit (default 0.9*Files/Horizon)
	DocLifetime float64 // mean intensity lifetime (default Horizon/20)
	DocMeanReqs float64 // E[V] requests per document (default: sized to Requests)
	WeightShape float64 // 0: fixed document weights; > 1: Pareto with mean DocMeanReqs

	// Diurnal rate shape (Mode "diurnal"); the request content is exactly
	// the stationary stream — only the open-loop arrival rate varies.
	DiurnalAmp     float64 // relative amplitude in (0,1) (default 0.5)
	DiurnalPeriods float64 // full sine periods across the run (default 2)

	// Flash crowd (Mode "flash"): a file absent from the stationary catalog
	// captures FlashFrac of traffic from FlashStart for FlashDur (fractions
	// of the request stream), then decays exponentially.
	FlashStart float64 // window start as a fraction of the stream (default 0.4)
	FlashDur   float64 // plateau length as a fraction of the stream (default 0.15)
	FlashFrac  float64 // peak traffic fraction captured (default 0.6)

	Seed int64
}

func (s GenSpec) withDefaults() GenSpec {
	if s.SizeSigma == 0 {
		s.SizeSigma = 1.0
	}
	// A spec without a mean request size gets the catalog mean: requests
	// sized like the files they hit, no size-popularity correlation. (The
	// churn generator sizes files itself and never reads AvgReqKB.)
	if s.AvgReqKB == 0 && s.Mode != ModeChurn {
		s.AvgReqKB = s.AvgFileKB
	}
	if s.LocalityDepth == 0 {
		s.LocalityDepth = 1000
	}
	if s.HeadFiles == 0 {
		s.HeadFiles = s.Files / 20
		if s.HeadFiles < 1 {
			s.HeadFiles = 1
		}
	}
	if s.ClientAlpha == 0 {
		s.ClientAlpha = 1
	}
	switch s.Mode {
	case ModeChurn:
		if s.Horizon == 0 {
			s.Horizon = 400
		}
		if s.DocRate == 0 && s.Files > 0 && s.Horizon > 0 {
			s.DocRate = 0.9 * float64(s.Files) / s.Horizon
		}
		if s.DocLifetime == 0 {
			s.DocLifetime = s.Horizon / 20
		}
	case ModeDiurnal:
		if s.DiurnalAmp == 0 {
			s.DiurnalAmp = 0.5
		}
		if s.DiurnalPeriods == 0 {
			s.DiurnalPeriods = 2
		}
	case ModeFlash:
		if s.FlashStart == 0 {
			s.FlashStart = 0.4
		}
		if s.FlashDur == 0 {
			s.FlashDur = 0.15
		}
		if s.FlashFrac == 0 {
			s.FlashFrac = 0.6
		}
	}
	return s
}

// maxScale bounds a request-count scale factor: the largest count a spec
// admits (reqs, 1e9) scaled by it, 1e18, still fits an int.
const maxScale = 1e9

// CheckScale reports whether factor can scale a spec's request count; the
// error names what is wanted, for a caller to prefix with where factor came
// from. Scaled itself clamps whatever it is given to at least 1 request.
func CheckScale(factor float64) error {
	if !(factor > 0 && factor <= maxScale) {
		return fmt.Errorf("want a finite factor in (0, %g], got %v", float64(maxScale), factor)
	}
	return nil
}

// Scaled returns a copy of the spec with the request count multiplied by
// factor (catalog untouched), for fast test and bench runs.
func (s GenSpec) Scaled(factor float64) GenSpec {
	s.Requests = int(float64(s.Requests) * factor)
	if s.Requests < 1 {
		s.Requests = 1
	}
	return s
}

// PaperTraces returns generation specs matching the four WWW server traces
// of Table 2. The locality (LocalityP) and concentration (HeadBoost)
// parameters are calibrated against two published observables: the
// sequential-server miss rates at 32 MB (9-28%, Section 5.1) and the
// multi-node traditional-server behavior implied by Figures 7-10 (real
// trace heads carry more traffic than their fitted Zipf exponents, which
// a pure Zipf synthetic would miss).
func PaperTraces() []GenSpec {
	return []GenSpec{
		{Name: "calgary", Files: 8397, AvgFileKB: 42.9, Requests: 567895, AvgReqKB: 19.7, Alpha: 1.08,
			LocalityP: 0.35, HeadBoost: 0.10, HeadFiles: 400, Seed: 11},
		{Name: "clarknet", Files: 35885, AvgFileKB: 11.6, Requests: 3053525, AvgReqKB: 11.9, Alpha: 0.78,
			LocalityP: 0.30, HeadBoost: 0.65, HeadFiles: 1000, Seed: 12},
		{Name: "nasa", Files: 5500, AvgFileKB: 53.7, Requests: 3147719, AvgReqKB: 47.0, Alpha: 0.91,
			LocalityP: 0.25, HeadBoost: 0.55, HeadFiles: 300, Seed: 13},
		{Name: "rutgers", Files: 24098, AvgFileKB: 30.5, Requests: 535021, AvgReqKB: 26.2, Alpha: 0.79,
			LocalityP: 0.45, HeadBoost: 0.35, HeadFiles: 800, Seed: 14},
	}
}

// PaperTrace returns the spec for one of the Table 2 traces by name.
func PaperTrace(name string) (GenSpec, error) {
	for _, s := range PaperTraces() {
		if s.Name == name {
			return s, nil
		}
	}
	return GenSpec{}, fmt.Errorf("trace: unknown paper trace %q", name)
}

// The synthesis modes of GenSpec.Mode. ModeStationary is the zero value, so
// every pre-existing spec is stationary by construction.
const (
	ModeStationary = ""
	ModeChurn      = "churn"
	ModeDiurnal    = "diurnal"
	ModeFlash      = "flash"
)

// Generate synthesizes a trace matching the spec. In the stationary mode:
//
//   - popularity follows a Zipf-like law with the requested alpha;
//   - file sizes follow size(rank i) = A * i^beta * lognormal noise, with A
//     and beta solved so that the catalog mean matches AvgFileKB and the
//     popularity-weighted mean matches AvgReqKB (beta > 0 encodes the
//     empirical fact that popular files are smaller);
//   - with probability LocalityP a request re-references a recent request
//     (temporal locality), otherwise it samples the Zipf law.
//
// ModeDiurnal generates the identical stationary content (the rate shape
// only affects open-loop timing); ModeChurn synthesizes a shot-noise
// process; ModeFlash overlays a flash crowd on the stationary stream.
func Generate(spec GenSpec) (*Trace, error) {
	spec = spec.withDefaults()
	if spec.Files < 1 {
		return nil, fmt.Errorf("trace %s: need at least one file", spec.Name)
	}
	if spec.Requests < 1 {
		return nil, fmt.Errorf("trace %s: need at least one request", spec.Name)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"AvgFileKB", spec.AvgFileKB}, {"AvgReqKB", spec.AvgReqKB}, {"Alpha", spec.Alpha},
		{"SizeSigma", spec.SizeSigma}, {"LocalityP", spec.LocalityP}, {"HeadBoost", spec.HeadBoost},
		{"ClientAlpha", spec.ClientAlpha},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("trace %s: %s %v must be finite", spec.Name, f.name, f.v)
		}
	}
	if spec.AvgFileKB <= 0 {
		return nil, fmt.Errorf("trace %s: AvgFileKB %v must be positive", spec.Name, spec.AvgFileKB)
	}
	if spec.SizeSigma < 0 {
		return nil, fmt.Errorf("trace %s: SizeSigma %v must be >= 0", spec.Name, spec.SizeSigma)
	}
	if !(spec.Alpha >= 0) {
		return nil, fmt.Errorf("trace %s: Alpha %v must be >= 0", spec.Name, spec.Alpha)
	}
	if spec.Clients > 0 && !(spec.ClientAlpha >= 0) {
		return nil, fmt.Errorf("trace %s: ClientAlpha %v must be >= 0", spec.Name, spec.ClientAlpha)
	}
	switch spec.Mode {
	case ModeStationary:
		return generateStationary(spec)
	case ModeChurn:
		return generateChurn(spec)
	case ModeDiurnal:
		if !(spec.DiurnalAmp > 0 && spec.DiurnalAmp < 1) {
			return nil, fmt.Errorf("trace %s: diurnal amplitude %v must be in (0,1)", spec.Name, spec.DiurnalAmp)
		}
		if !(spec.DiurnalPeriods > 0) || math.IsInf(spec.DiurnalPeriods, 0) {
			return nil, fmt.Errorf("trace %s: diurnal periods %v must be positive and finite", spec.Name, spec.DiurnalPeriods)
		}
		return generateStationary(spec)
	case ModeFlash:
		return generateFlash(spec)
	default:
		return nil, fmt.Errorf("trace %s: unknown mode %q (valid: stationary, churn, diurnal, flash)", spec.Name, spec.Mode)
	}
}

// generateStationary is the original fixed-catalog Zipf generator. Its RNG
// draw sequence is pinned by golden_test.go and must never change.
func generateStationary(spec GenSpec) (*Trace, error) {
	if spec.AvgReqKB <= 0 {
		return nil, fmt.Errorf("trace %s: AvgReqKB %v must be positive", spec.Name, spec.AvgReqKB)
	}
	if spec.LocalityP < 0 || spec.LocalityP >= 1 {
		return nil, fmt.Errorf("trace %s: LocalityP must be in [0,1)", spec.Name)
	}
	if spec.HeadBoost < 0 || spec.HeadBoost >= 1 {
		return nil, fmt.Errorf("trace %s: HeadBoost must be in [0,1)", spec.Name)
	}
	if spec.LocalityP > 0 && spec.LocalityDepth < 0 {
		return nil, fmt.Errorf("trace %s: LocalityDepth %d must be positive", spec.Name, spec.LocalityDepth)
	}
	if spec.HeadBoost > 0 && spec.HeadFiles < 0 {
		return nil, fmt.Errorf("trace %s: HeadFiles %d must be positive", spec.Name, spec.HeadFiles)
	}
	if spec.HeadFiles > spec.Files {
		spec.HeadFiles = spec.Files
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// Popularity weights p_i over ranks.
	pop := zipf.New(spec.Alpha, int64(spec.Files))

	// Effective popularity including the head boost, used for size
	// calibration: p_eff(i) = B/K for i <= K, plus (1-B)*p_zipf(i). It does
	// not depend on beta, so it is tabulated once for the whole bisection.
	pEff := make([]float64, spec.Files)
	fillChunks(len(pEff), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := (1 - spec.HeadBoost) * pop.P(int64(i+1))
			if i < spec.HeadFiles {
				p += spec.HeadBoost / float64(spec.HeadFiles)
			}
			pEff[i] = p
		}
	})

	// Lognormal noise with mean 1.
	noise := make([]float64, spec.Files)
	for i := range noise {
		noise[i] = math.Exp(spec.SizeSigma*rng.NormFloat64() - spec.SizeSigma*spec.SizeSigma/2)
	}

	// shape is the bisection's term buffer; it is left holding the terms.
	shape := make([]float64, spec.Files)
	solveBeta(pEff, noise, shape, spec.AvgReqKB/spec.AvgFileKB)

	// Scale to the catalog mean.
	var mean float64
	for _, s := range shape {
		mean += s
	}
	mean /= float64(spec.Files)
	scale := spec.AvgFileKB * 1024 / mean

	sizes := make([]int64, spec.Files)
	for i := range sizes {
		sz := int64(math.Round(shape[i] * scale))
		if sz < 64 {
			sz = 64 // no zero-byte responses
		}
		sizes[i] = sz
	}

	// Request stream: Zipf sampling with a boosted head and LRU-stack
	// temporal locality.
	reqs := make([]cache.FileID, spec.Requests)
	for k := range reqs {
		if k > 0 && spec.LocalityP > 0 && rng.Float64() < spec.LocalityP {
			depth := spec.LocalityDepth
			if depth > k {
				depth = k
			}
			reqs[k] = reqs[k-1-rng.Intn(depth)]
			continue
		}
		if spec.HeadBoost > 0 && rng.Float64() < spec.HeadBoost {
			reqs[k] = cache.FileID(rng.Intn(spec.HeadFiles))
			continue
		}
		// Rank r maps to file id r-1 (the catalog is rank-ordered).
		reqs[k] = cache.FileID(pop.Sample(rng) - 1)
	}

	t := &Trace{Name: spec.Name, Alpha: spec.Alpha, Sizes: sizes, Requests: reqs}
	attachClients(t, spec, rng)
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// generateChurn synthesizes a shot-noise trace: documents arrive over the
// horizon (capped at Files), each emitting requests at an exponentially
// decaying intensity, and the time-ordered stream is truncated to the first
// Requests entries. DocMeanReqs defaults to the volume that makes the
// expected realization ~15% longer than Requests, so truncation succeeds
// with margin; a realization that still comes up short is an error, not a
// silent short trace.
func generateChurn(spec GenSpec) (*Trace, error) {
	if spec.LocalityP != 0 || spec.HeadBoost != 0 {
		return nil, fmt.Errorf("trace %s: locality and head-boost do not apply to churn mode", spec.Name)
	}
	meanReqs := spec.DocMeanReqs
	if meanReqs == 0 {
		if !(spec.DocRate > 0) || !(spec.Horizon > 0) || !(spec.DocLifetime > 0) {
			return nil, fmt.Errorf("trace %s: churn mode needs positive docrate, horizon, lifetime", spec.Name)
		}
		// Expected in-window requests per unit weight:
		// Int_0^W (1 - e^{-(W-t)/L}) dt = W - L*(1 - e^{-W/L}).
		eff := spec.Horizon + spec.DocLifetime*math.Expm1(-spec.Horizon/spec.DocLifetime)
		meanReqs = 1.15 * float64(spec.Requests) / (spec.DocRate * eff)
	}
	proc, err := shotnoise.Generate(shotnoise.Spec{
		Rate:         spec.DocRate,
		Horizon:      spec.Horizon,
		MeanRequests: meanReqs,
		Lifetime:     spec.DocLifetime,
		WeightShape:  spec.WeightShape,
		MaxDocs:      spec.Files,
		Seed:         spec.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", spec.Name, err)
	}
	if proc.NumRequests() < spec.Requests {
		return nil, fmt.Errorf("trace %s: shot-noise realization has %d requests, need %d (raise docreqs, docrate, or horizon)",
			spec.Name, proc.NumRequests(), spec.Requests)
	}

	// Catalog: one file per realized document, lognormal sizes around the
	// mean. Size-rank correlation has no meaning when ranks churn, so
	// AvgReqKB is not consumed here.
	rng := rand.New(rand.NewSource(spec.Seed + 1))
	sizes := make([]int64, len(proc.Docs))
	for i := range sizes {
		noise := math.Exp(spec.SizeSigma*rng.NormFloat64() - spec.SizeSigma*spec.SizeSigma/2)
		sz := int64(math.Round(noise * spec.AvgFileKB * 1024))
		if sz < 64 {
			sz = 64
		}
		sizes[i] = sz
	}

	reqs := make([]cache.FileID, spec.Requests)
	for k := range reqs {
		reqs[k] = cache.FileID(proc.DocOf[k])
	}
	t := &Trace{Name: spec.Name, Alpha: spec.Alpha, Sizes: sizes, Requests: reqs}
	attachClients(t, spec, rng)
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// generateFlash generates the stationary stream with identical draws, then
// overlays the crowd: one appended cold file captures FlashFrac of requests
// over the plateau window and an exponential tail after it. The overlay
// consumes a separate RNG stream, so the underlying stationary content is
// the exact byte-identical stationary trace.
func generateFlash(spec GenSpec) (*Trace, error) {
	if !(spec.FlashFrac > 0 && spec.FlashFrac < 1) {
		return nil, fmt.Errorf("trace %s: flash fraction %v must be in (0,1)", spec.Name, spec.FlashFrac)
	}
	if spec.FlashStart < 0 || spec.FlashStart >= 1 {
		return nil, fmt.Errorf("trace %s: flash start %v must be in [0,1)", spec.Name, spec.FlashStart)
	}
	if !(spec.FlashDur > 0) || spec.FlashStart+spec.FlashDur > 1 {
		return nil, fmt.Errorf("trace %s: flash window [%v, %v+%v] must fit in [0,1]",
			spec.Name, spec.FlashStart, spec.FlashStart, spec.FlashDur)
	}
	t, err := generateStationary(spec)
	if err != nil {
		return nil, err
	}
	flashID := cache.FileID(len(t.Sizes))
	t.Sizes = append(t.Sizes, int64(math.Round(spec.AvgFileKB*1024)))

	frng := rand.New(rand.NewSource(spec.Seed + 101))
	n := len(t.Requests)
	start := int(spec.FlashStart * float64(n))
	dur := int(spec.FlashDur * float64(n))
	if dur < 1 {
		dur = 1
	}
	end := start + dur
	tail := float64(dur) / 3
	for k := start; k < n; k++ {
		p := spec.FlashFrac
		if k >= end {
			p *= math.Exp(-float64(k-end) / tail)
			if p < 1e-3 {
				break
			}
		}
		if frng.Float64() < p {
			t.Requests[k] = flashID
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustGenerate is Generate for specs known valid at compile time.
func MustGenerate(spec GenSpec) *Trace {
	t, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// attachClients tags the trace's requests with Zipf-distributed client
// identities when the spec asks for them. Its draw order is golden-pinned.
func attachClients(t *Trace, spec GenSpec, rng *rand.Rand) {
	if spec.Clients <= 0 {
		return
	}
	cdist := zipf.New(spec.ClientAlpha, int64(spec.Clients))
	clients := make([]int32, len(t.Requests))
	for k := range clients {
		clients[k] = int32(cdist.Sample(rng) - 1)
	}
	t.Clients = clients
}

// solveBeta finds the size-rank exponent beta such that the ratio of the
// popularity-weighted mean size to the unweighted mean size equals target.
// The ratio is strictly decreasing in beta (larger beta inflates unpopular
// high-rank files, which the uniform mean weights more heavily), so a
// bisection converges. pEff is the tabulated effective popularity by rank;
// terms is scratch of the same length, overwritten by every evaluation.
//
// After ~45 halvings rounding noise decides the comparisons, so the traces
// are only reproducible if ratio returns the same float64 on every host:
// the terms are computed in parallel, but the two sums accumulate serially
// in rank order, which makes the result independent of the chunk count.
// On return terms holds the terms at the returned beta.
func solveBeta(pEff, noise, terms []float64, target float64) float64 {
	// Log(rank) does not depend on beta: one table serves every evaluation.
	logs := make([]float64, len(noise))
	fillChunks(len(logs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			logs[i] = math.Log(float64(i + 1))
		}
	})
	beta := bisectBeta(func(beta float64) float64 {
		fillTerms(terms, noise, logs, beta)
		var weighted, uniform float64
		for i, s := range terms {
			weighted += pEff[i] * s
			uniform += s
		}
		uniform /= float64(len(noise))
		return weighted / uniform
	}, target)
	fillTerms(terms, noise, logs, beta)
	return beta
}

// bisectBeta returns the beta in [-3, 5] at which the decreasing function
// ratio crosses target, saturating at either end.
func bisectBeta(ratio func(beta float64) float64, target float64) float64 {
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

// fillTerms sets terms[i] to the unscaled size of rank i+1 under beta,
// math.Pow(i+1, beta) * noise[i]; logs[i] must be math.Log(i+1).
func fillTerms(terms, noise, logs []float64, beta float64) {
	k := newRankPow(beta)
	fillChunks(len(terms), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			terms[i] = k.pow(i+1, logs[i]) * noise[i]
		}
	})
}

// minFillChunk is the smallest share of a fill worth a goroutine of its
// own: a few thousand powers, ~0.05 ms.
const minFillChunk = 4096

// fillChunks calls fill on disjoint contiguous ranges that cover [0, n), on
// up to GOMAXPROCS goroutines, and returns when all of them have. fill must
// compute element i from i alone, so that the chunking cannot show in the
// result.
func fillChunks(n int, fill func(lo, hi int)) {
	chunks := max(1, min(runtime.GOMAXPROCS(0), n/minFillChunk))
	var wg sync.WaitGroup
	for c := 1; c < chunks; c++ {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(lo, hi)
		}()
	}
	fill(0, n/chunks)
	wg.Wait()
}

package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
)

func smallSpec() GenSpec {
	return GenSpec{
		Name: "small", Files: 500, AvgFileKB: 40, Requests: 20000,
		AvgReqKB: 20, Alpha: 1.0, Seed: 1,
	}
}

func TestGenerateMatchesSpecMeans(t *testing.T) {
	tr := MustGenerate(smallSpec())
	ch := Characterize(tr)
	// Catalog mean is matched by construction up to rounding.
	catalogMean := 0.0
	for _, s := range tr.Sizes {
		catalogMean += float64(s)
	}
	catalogMean /= float64(len(tr.Sizes)) * 1024
	if math.Abs(catalogMean-40)/40 > 0.01 {
		t.Fatalf("catalog mean = %.2f KB, want 40", catalogMean)
	}
	// Request mean is matched in expectation; allow sampling noise.
	if math.Abs(ch.AvgReqKB-20)/20 > 0.15 {
		t.Fatalf("request mean = %.2f KB, want about 20", ch.AvgReqKB)
	}
	if tr.NumFiles() != 500 || tr.NumRequests() != 20000 {
		t.Fatalf("sizes/requests = %d/%d", tr.NumFiles(), tr.NumRequests())
	}
}

func TestGeneratePopularFilesAreSmaller(t *testing.T) {
	tr := MustGenerate(smallSpec())
	// With AvgReq < AvgFile the top popularity decile must be smaller on
	// average than the bottom decile.
	n := len(tr.Sizes)
	var top, bottom float64
	for i := 0; i < n/10; i++ {
		top += float64(tr.Sizes[i])
		bottom += float64(tr.Sizes[n-1-i])
	}
	if top >= bottom {
		t.Fatalf("top decile (%v) should be smaller than bottom decile (%v)", top, bottom)
	}
}

func TestGenerateInvertedSizesWhenReqLarger(t *testing.T) {
	spec := smallSpec()
	spec.AvgReqKB = 80 // popular files larger than average
	tr := MustGenerate(spec)
	ch := Characterize(tr)
	if ch.AvgReqKB < ch.AvgFileKB {
		t.Fatalf("AvgReq %.1f should exceed AvgFile %.1f", ch.AvgReqKB, ch.AvgFileKB)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(smallSpec())
	b := MustGenerate(smallSpec())
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("lengths differ")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %d vs %d", i, a.Requests[i], b.Requests[i])
		}
	}
}

func TestGenerateLocalityRaisesHitRate(t *testing.T) {
	base := smallSpec()
	local := base
	local.LocalityP = 0.5
	missRate := func(tr *Trace) float64 {
		c := cache.NewLRU(2 << 20) // deliberately tiny: 2 MB
		for _, id := range tr.Requests {
			c.Access(id, tr.Size(id))
		}
		return 1 - c.HitRate()
	}
	mBase := missRate(MustGenerate(base))
	mLocal := missRate(MustGenerate(local))
	if mLocal >= mBase {
		t.Fatalf("locality should reduce misses: base %.3f, local %.3f", mBase, mLocal)
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := map[string]GenSpec{
		"no-files":    {Name: "x", Files: 0, AvgFileKB: 1, Requests: 1, AvgReqKB: 1, Alpha: 1},
		"no-requests": {Name: "x", Files: 1, AvgFileKB: 1, Requests: 0, AvgReqKB: 1, Alpha: 1},
		"bad-size":    {Name: "x", Files: 1, AvgFileKB: 0, Requests: 1, AvgReqKB: 1, Alpha: 1},
		"bad-p":       {Name: "x", Files: 1, AvgFileKB: 1, Requests: 1, AvgReqKB: 1, Alpha: 1, LocalityP: 1.5},
		// Values zipf.New and rand.Intn panic on; NaN passes every "< 0" test.
		"neg-alpha":         {Name: "x", Files: 10, AvgFileKB: 1, Requests: 10, AvgReqKB: 1, Alpha: -1},
		"nan-alpha":         {Name: "x", Files: 10, AvgFileKB: 1, Requests: 10, AvgReqKB: 1, Alpha: math.NaN()},
		"neg-clientalpha":   {Name: "x", Files: 10, AvgFileKB: 1, Requests: 10, AvgReqKB: 1, Alpha: 1, Clients: 5, ClientAlpha: -1},
		"nan-clientalpha":   {Name: "x", Files: 10, AvgFileKB: 1, Requests: 10, AvgReqKB: 1, Alpha: 1, Clients: 5, ClientAlpha: math.NaN()},
		"churn-clientalpha": {Name: "x", Mode: ModeChurn, Files: 100, AvgFileKB: 1, Requests: 100, Clients: 5, ClientAlpha: -1},
		"neg-depth":         {Name: "x", Files: 10, AvgFileKB: 1, Requests: 100, AvgReqKB: 1, Alpha: 1, LocalityP: 0.5, LocalityDepth: -1},
		"neg-headfiles":     {Name: "x", Files: 10, AvgFileKB: 1, Requests: 100, AvgReqKB: 1, Alpha: 1, HeadBoost: 0.5, HeadFiles: -1},
	}
	// Non-finite values pass every "< 0" and "<= 0" test; these rows are
	// named "field/i" after the field their error must name.
	nan, inf := math.NaN(), math.Inf(1)
	for i, c := range []struct {
		field string
		set   func(*GenSpec)
	}{
		{"AvgFileKB", func(s *GenSpec) { s.AvgFileKB = nan }},
		{"AvgFileKB", func(s *GenSpec) { s.AvgFileKB = inf }},
		{"AvgReqKB", func(s *GenSpec) { s.AvgReqKB = nan }},
		{"AvgReqKB", func(s *GenSpec) { s.AvgReqKB = inf }},
		{"Alpha", func(s *GenSpec) { s.Alpha = inf }},
		{"SizeSigma", func(s *GenSpec) { s.SizeSigma = nan }},
		{"SizeSigma", func(s *GenSpec) { s.SizeSigma = -inf }},
		{"SizeSigma", func(s *GenSpec) { s.SizeSigma = -0.5 }},
		{"LocalityP", func(s *GenSpec) { s.LocalityP = nan }},
		{"HeadBoost", func(s *GenSpec) { s.HeadBoost = nan }},
		{"ClientAlpha", func(s *GenSpec) { s.Clients, s.ClientAlpha = 5, inf }},
		{"LocalityP", func(s *GenSpec) { s.Mode, s.LocalityP = ModeChurn, nan }},
		{"SizeSigma", func(s *GenSpec) { s.Mode, s.SizeSigma = ModeChurn, nan }},
	} {
		spec := GenSpec{Name: "x", Files: 10, AvgFileKB: 1, Requests: 10, AvgReqKB: 1, Alpha: 1}
		c.set(&spec)
		cases[fmt.Sprintf("%s/%d", c.field, i)] = spec
	}
	for name, spec := range cases {
		_, err := Generate(spec)
		if err == nil {
			t.Errorf("%s: expected error", name)
		} else if !strings.HasPrefix(err.Error(), "trace x: ") {
			t.Errorf("%s: error %q does not name the trace", name, err)
		} else if field, _, ok := strings.Cut(name, "/"); ok && !strings.HasPrefix(err.Error(), "trace x: "+field+" ") {
			t.Errorf("%s: error %q does not name the field", name, err)
		}
	}
}

func TestScaled(t *testing.T) {
	s := smallSpec().Scaled(0.1)
	if s.Requests != 2000 {
		t.Fatalf("Scaled requests = %d, want 2000", s.Requests)
	}
	if smallSpec().Scaled(0).Requests != 1 {
		t.Fatal("Scaled should floor at 1 request")
	}
}

func TestPaperTraceLookup(t *testing.T) {
	if _, err := PaperTrace("nasa"); err != nil {
		t.Fatal(err)
	}
	if _, err := PaperTrace("nope"); err == nil {
		t.Fatal("unknown trace should error")
	}
}

// Table 2 reproduction at generation scale: all four paper traces must
// match the published characteristics. Uses a scaled request count to stay
// fast; popularity and size distributions do not depend on trace length.
func TestPaperTracesMatchTable2(t *testing.T) {
	want := map[string]struct {
		files                int
		avgFile, avgReq      float64
		workingLo, workingHi float64
	}{
		"calgary":  {8397, 42.9, 19.7, 250, 450},
		"clarknet": {35885, 11.6, 11.9, 330, 500},
		"nasa":     {5500, 53.7, 47.0, 230, 350},
		"rutgers":  {24098, 30.5, 26.2, 600, 820},
	}
	for _, spec := range PaperTraces() {
		spec := spec.Scaled(0.2)
		tr := MustGenerate(spec)
		ch := Characterize(tr)
		w := want[spec.Name]
		if tr.NumFiles() != w.files {
			t.Errorf("%s: files = %d, want %d", spec.Name, tr.NumFiles(), w.files)
		}
		catalogMean := 0.0
		for _, s := range tr.Sizes {
			catalogMean += float64(s)
		}
		catalogMean /= float64(len(tr.Sizes)) * 1024
		if math.Abs(catalogMean-w.avgFile)/w.avgFile > 0.02 {
			t.Errorf("%s: catalog mean = %.1f KB, want %.1f", spec.Name, catalogMean, w.avgFile)
		}
		if math.Abs(ch.AvgReqKB-w.avgReq)/w.avgReq > 0.2 {
			t.Errorf("%s: request mean = %.1f KB, want about %.1f", spec.Name, ch.AvgReqKB, w.avgReq)
		}
		ws := float64(tr.NumFiles()) * catalogMean / 1024
		if ws < w.workingLo || ws > w.workingHi {
			t.Errorf("%s: working set = %.0f MB, want in [%v, %v]", spec.Name, ws, w.workingLo, w.workingHi)
		}
		// The paper: working sets from 288 MB to 717 MB across the traces.
		if ws < 200 || ws > 850 {
			t.Errorf("%s: working set %.0f MB outside the paper's band", spec.Name, ws)
		}
	}
}

// Section 5.1: "cache miss rates between 9 and 28% assuming a sequential
// server with 32 MBytes of main memory" (after cache warm-up).
func TestPaperTracesSequentialMissRates(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length traces are slow")
	}
	for _, spec := range PaperTraces() {
		spec := spec.Scaled(0.25)
		tr := MustGenerate(spec)
		c := cache.NewLRU(32 << 20)
		warm := len(tr.Requests) / 3
		for _, id := range tr.Requests[:warm] {
			c.Warm(id, tr.Size(id))
		}
		for _, id := range tr.Requests[warm:] {
			c.Access(id, tr.Size(id))
		}
		miss := 1 - c.HitRate()
		t.Logf("%s: sequential 32MB miss rate = %.1f%%", spec.Name, miss*100)
		if miss < 0.05 || miss > 0.35 {
			t.Errorf("%s: miss rate %.1f%% far outside the paper's 9-28%% band", spec.Name, miss*100)
		}
	}
}

func TestCharacterizeFitsAlpha(t *testing.T) {
	spec := smallSpec()
	spec.Alpha = 0.9
	spec.Requests = 100000
	ch := Characterize(MustGenerate(spec))
	if math.Abs(ch.Alpha-0.9) > 0.2 {
		t.Fatalf("fitted alpha = %.2f, want about 0.9", ch.Alpha)
	}
}

func TestTruncate(t *testing.T) {
	tr := MustGenerate(smallSpec())
	short := tr.Truncate(100)
	if short.NumRequests() != 100 {
		t.Fatalf("Truncate gave %d requests", short.NumRequests())
	}
	if short.NumFiles() != tr.NumFiles() {
		t.Fatal("Truncate must share the catalog")
	}
	if tr.Truncate(1<<30) != tr {
		t.Fatal("oversize Truncate should return the original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := MustGenerate(smallSpec())
	bad := *tr
	bad.Requests = append([]cache.FileID{cache.FileID(len(tr.Sizes))}, tr.Requests...)
	if bad.Validate() == nil {
		t.Fatal("out-of-range request must fail validation")
	}
	bad2 := *tr
	bad2.Sizes = append([]int64{0}, tr.Sizes[1:]...)
	if bad2.Validate() == nil {
		t.Fatal("zero size must fail validation")
	}
}

func TestGenerateClients(t *testing.T) {
	spec := smallSpec()
	spec.Clients = 50
	tr := MustGenerate(spec)
	if tr.Clients == nil || len(tr.Clients) != tr.NumRequests() {
		t.Fatal("client ids missing or misaligned")
	}
	counts := make(map[int32]int)
	for i := range tr.Requests {
		c := tr.Client(i)
		if c < 0 || c >= 50 {
			t.Fatalf("client %d out of range", c)
		}
		counts[c]++
	}
	// Zipf activity: the busiest client well above the average.
	busiest := 0
	for _, n := range counts {
		if n > busiest {
			busiest = n
		}
	}
	if busiest < 3*tr.NumRequests()/50 {
		t.Errorf("busiest client only %d requests; expected a heavy hitter", busiest)
	}
}

func TestClientWithoutClientInfo(t *testing.T) {
	tr := MustGenerate(smallSpec())
	if tr.Client(7) != 7 {
		t.Fatal("traces without client info must treat every request as a distinct client")
	}
}

func TestClientsRoundTripAndTruncate(t *testing.T) {
	spec := smallSpec()
	spec.Clients = 20
	tr := MustGenerate(spec)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Clients == nil || got.Clients[5] != tr.Clients[5] {
		t.Fatal("clients lost in round trip")
	}
	short := tr.Truncate(10)
	if len(short.Clients) != 10 {
		t.Fatal("Truncate must cut client ids too")
	}
}

func TestValidateClientLengthMismatch(t *testing.T) {
	tr := MustGenerate(smallSpec())
	bad := *tr
	bad.Clients = []int32{1, 2, 3}
	if bad.Validate() == nil {
		t.Fatal("client/request length mismatch must fail validation")
	}
}

// distinctRef is the map-based reference DistinctFiles is checked against.
func distinctRef(tr *Trace) int {
	seen := make(map[cache.FileID]struct{})
	for _, id := range tr.Requests {
		seen[id] = struct{}{}
	}
	return len(seen)
}

// TestDistinctFiles pins the census server.Run sizes per-file policy state
// from: it equals a map-based count and Characterize's NumFiles on the
// stationary golden specs, on their truncations (Truncate shares Requests,
// so a cached count would be wrong here), and at the bitset's edges.
func TestDistinctFiles(t *testing.T) {
	check := func(name string, tr *Trace) {
		t.Helper()
		got := tr.DistinctFiles()
		if want := distinctRef(tr); got != want {
			t.Errorf("%s: DistinctFiles = %d, map reference %d", name, got, want)
		}
		if ch := Characterize(tr); got != ch.NumFiles {
			t.Errorf("%s: DistinctFiles = %d, Characterize.NumFiles %d", name, got, ch.NumFiles)
		}
	}
	for _, spec := range stationaryGoldenSpecs() {
		if testing.Short() && spec.Files > 50_000 {
			continue
		}
		tr := MustGenerate(spec)
		check(spec.Name, tr)
		for _, n := range []int{1, 63, 64, 65, tr.NumRequests() / 3} {
			check(fmt.Sprintf("%s[:%d]", spec.Name, n), tr.Truncate(n))
		}
	}

	// Catalog sizes around the 64-bit word boundary, requesting nothing,
	// only the last file, and every file twice.
	for _, files := range []int{1, 63, 64, 65, 128, 129} {
		sizes := make([]int64, files)
		for i := range sizes {
			sizes[i] = 1
		}
		empty := &Trace{Name: "empty", Sizes: sizes}
		if got := empty.DistinctFiles(); got != 0 {
			t.Errorf("F=%d, no requests: DistinctFiles = %d, want 0", files, got)
		}
		last := &Trace{Name: "last", Sizes: sizes, Requests: []cache.FileID{cache.FileID(files - 1)}}
		if got := last.DistinctFiles(); got != 1 {
			t.Errorf("F=%d, last file only: DistinctFiles = %d, want 1", files, got)
		}
		all := &Trace{Name: "all", Sizes: sizes}
		for rep := 0; rep < 2; rep++ {
			for f := files - 1; f >= 0; f-- {
				all.Requests = append(all.Requests, cache.FileID(f))
			}
		}
		check(fmt.Sprintf("all F=%d", files), all)
		if got := all.DistinctFiles(); got != files {
			t.Errorf("F=%d, every file twice: DistinctFiles = %d, want %d", files, got, files)
		}
	}
	if got := (&Trace{}).DistinctFiles(); got != 0 {
		t.Errorf("zero Trace: DistinctFiles = %d, want 0", got)
	}
}

// BenchmarkDistinctFiles times the census server.Run takes before every run,
// on the trace of the bench workloads miss16, gossip1024 and chash1024.
func BenchmarkDistinctFiles(b *testing.B) {
	tr := MustGenerate(GenSpec{Files: 1_000_000, AvgFileKB: 6, AvgReqKB: 5, Alpha: 0.8,
		LocalityP: 0.3, Requests: 600_000, Seed: 11})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.DistinctFiles() != 213_139 {
			b.Fatal("census changed")
		}
	}
}

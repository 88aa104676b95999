package obs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// refSeries is the array-of-structs recorder obs.Series replaced (PR 20),
// kept verbatim as the reference the column store is compared against.
type refSeries struct {
	samples []obs.Sample
}

func (s *refSeries) Record(t, dt float64, node int, metric string, v float64) {
	if s == nil {
		return
	}
	s.samples = append(s.samples, obs.Sample{T: t, Dt: dt, Node: node, Metric: metric, V: v})
}

func (s *refSeries) Len() int {
	if s == nil {
		return 0
	}
	return len(s.samples)
}

func (s *refSeries) Samples() []obs.Sample {
	if s == nil {
		return nil
	}
	return s.samples
}

// weightedMean is the dt-weighted mean of one (node, metric) series — the
// time average of the sampled signal — or 0 when no sample matches.
func weightedMean(samples []obs.Sample, node int, metric string) float64 {
	var num, den float64
	for i := range samples {
		sm := &samples[i]
		if sm.Node != node || sm.Metric != metric {
			continue
		}
		num += sm.V * sm.Dt
		den += sm.Dt
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func (s *refSeries) Metrics() []string {
	if s == nil {
		return nil
	}
	seen := make(map[string]bool)
	for i := range s.samples {
		seen[s.samples[i].Metric] = true
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func (s *refSeries) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range s.Samples() {
		if err := enc.Encode(&s.samples[i]); err != nil {
			return err
		}
	}
	return nil
}

type refChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Args map[string]any `json:"args"`
}

func (s *refSeries) WriteChromeTrace(w io.Writer) error {
	samples := s.Samples()
	events := make([]refChromeEvent, 0, len(samples)+8)
	named := make(map[int]bool)
	procName := func(node int) string {
		if node == obs.ClusterWide {
			return "cluster"
		}
		return fmt.Sprintf("node %d", node)
	}
	for i := range samples {
		sm := &samples[i]
		pid := sm.Node + 1 // ClusterWide (-1) maps to process 0
		if !named[pid] {
			named[pid] = true
			events = append(events, refChromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": procName(sm.Node)},
			})
		}
		events = append(events, refChromeEvent{
			Name: sm.Metric, Ph: "C", Pid: pid, Ts: sm.T * 1e6,
			Args: map[string]any{"value": sm.V},
		})
	}
	doc := struct {
		TraceEvents     []refChromeEvent `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// recorder is what the two implementations share.
type recorder interface {
	Record(t, dt float64, node int, metric string, v float64)
	Len() int
	Samples() []obs.Sample
	Metrics() []string
	WriteJSONL(io.Writer) error
	WriteChromeTrace(io.Writer) error
}

// assertSame compares every read-side result of a recorder with the
// reference: sample order and values, the metric set, and both artifacts
// byte for byte.
func assertSame(t *testing.T, got recorder, want *refSeries) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	gs, ws := got.Samples(), want.Samples()
	if !reflect.DeepEqual(gs, ws) {
		for i := range ws {
			if i >= len(gs) || gs[i] != ws[i] {
				t.Fatalf("Samples differ at %d of %d: got %+v, want %+v", i, len(ws), gs[i], ws[i])
			}
		}
		t.Fatalf("Samples differ: got %#v, want %#v", gs, ws)
	}
	if g, w := got.Metrics(), want.Metrics(); !reflect.DeepEqual(g, w) {
		t.Fatalf("Metrics = %v, want %v", g, w)
	}
	for name, write := range map[string]func(recorder, io.Writer) error{
		"JSONL":  func(r recorder, w io.Writer) error { return r.WriteJSONL(w) },
		"Chrome": func(r recorder, w io.Writer) error { return r.WriteChromeTrace(w) },
	} {
		var g, w bytes.Buffer
		if err := write(got, &g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := write(want, &w); err != nil {
			t.Fatalf("%s (reference): %v", name, err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Errorf("%s output differs from the reference writer's (%d vs %d bytes)", name, g.Len(), w.Len())
		}
	}
}

// pinnedRun is one small instrumented run: 8 nodes, L2S, open loop at a rate
// low enough that nodes sit idle for whole sampling intervals, so the ragged
// cache_hit_rate and forward_frac columns come and go between ticks.
var pinnedRun = sync.OnceValue(func() *obs.Series {
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "pinned", Files: 800, AvgFileKB: 6, Requests: 4000,
		AvgReqKB: 5, Alpha: 0.8, LocalityP: 0.3, Seed: 20,
	})
	rec := obs.NewSeries(0.004)
	cfg := server.NewConfig(server.L2SServer, 8, server.WithSeed(11),
		server.WithCacheBytes(2<<20), server.WithArrivalRate(2000), server.WithSeries(rec))
	if _, err := server.Run(cfg, tr); err != nil {
		panic(err)
	}
	return rec
})

// The SHA-256 of the two artifacts of pinnedRun, computed at the parent of
// the commit that introduced the column store (b3a42e6).
const (
	pinnedJSONLSHA  = "455fb960d7c1ee66f9fb58a33b10b3c5cf550cfca596a3951fe4f0b2931ea1f9"
	pinnedChromeSHA = "c25d13079c0739e1591c48ce838adf4fd686766f4a5cf2ef9e85671d7ac127b2"
)

func sha(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestArtifactsPinned: the artifacts of a real run are byte-identical to
// what the array-of-structs recorder wrote, and the run is ragged enough to
// exercise shape forks.
func TestArtifactsPinned(t *testing.T) {
	rec := pinnedRun()
	perTick := map[float64]int{}
	for _, sm := range rec.Samples() {
		perTick[sm.T]++
	}
	sizes := map[int]bool{}
	for _, n := range perTick {
		sizes[n] = true
	}
	t.Logf("%d samples in %d ticks of sizes %v", rec.Len(), len(perTick), sizes)
	if len(sizes) < 3 {
		t.Fatalf("pinned run is not ragged: tick sizes %v", sizes)
	}
	if got := sha(t, rec.WriteJSONL); got != pinnedJSONLSHA {
		t.Errorf("WriteJSONL sha256 = %s, want %s", got, pinnedJSONLSHA)
	}
	if got := sha(t, rec.WriteChromeTrace); got != pinnedChromeSHA {
		t.Errorf("WriteChromeTrace sha256 = %s, want %s", got, pinnedChromeSHA)
	}
}

// TestSeriesMatchesReference replays sample streams into the reference
// recorder and compares every read-side result.
func TestSeriesMatchesReference(t *testing.T) {
	t.Run("run", func(t *testing.T) {
		rec := pinnedRun()
		ref := &refSeries{}
		for _, sm := range rec.Samples() {
			ref.Record(sm.T, sm.Dt, sm.Node, sm.Metric, sm.V)
		}
		// The replay goes through Samples(), so anchor it: the reference
		// writer over the replayed samples must reproduce the parent's bytes.
		if got := sha(t, ref.WriteJSONL); got != pinnedJSONLSHA {
			t.Fatalf("replayed reference JSONL sha256 = %s, want %s", got, pinnedJSONLSHA)
		}
		assertSame(t, rec, ref)
	})

	t.Run("ragged", func(t *testing.T) {
		type rc struct {
			t, dt  float64
			node   int
			metric string
			v      float64
		}
		var seq []rc
		tick := func(tm float64, cols ...rc) {
			for _, c := range cols {
				c.t, c.dt = tm, 0.5
				seq = append(seq, c)
			}
		}
		a := rc{node: 0, metric: "cpu_util", v: 0.25}
		b := rc{node: 0, metric: "cache_hit_rate", v: 0.5} // the ragged column
		c := rc{node: 1, metric: "cpu_util", v: 0.75}
		w := rc{node: obs.ClusterWide, metric: "throughput", v: 100}
		tick(0.5, a, w, c)          // b missing in the first tick
		tick(1.0, a, b, w, c)       // b appears: fork in the middle
		tick(1.5, a, b, w, c)       // shared shape
		tick(2.0, a, w, c)          // b disappears again
		tick(2.5, a, w, c, b)       // b moves to the end: in-place extension
		tick(3.0, a, w)             // strict prefix
		tick(3.5, a, w, c, b, a, a) // a column repeated inside one tick
		tick(3.5, w)                // same (t, dt) continues the tick
		tick(4.0, c)                // diverges at position 0
		tick(0.25, a, w, c)         // time going backwards is the caller's business
		seq = append(seq, rc{t: 5, dt: 0.125, node: 0, metric: "cpu_util", v: 1},
			rc{t: 5, dt: 0.25, node: 0, metric: "cpu_util", v: 2}, // dt alone starts a tick
			rc{t: 0, dt: 1, node: 2, metric: "<&>\" é", v: 1e-7},
			rc{t: math.Copysign(0, -1), dt: 1, node: 2, metric: "big", v: 1e21}) // -0 is not 0 in the artifacts

		rec, ref := obs.NewSeries(0.5), &refSeries{}
		for _, s := range seq {
			rec.Record(s.t, s.dt, s.node, s.metric, s.v)
			ref.Record(s.t, s.dt, s.node, s.metric, s.v)
		}
		assertSame(t, rec, ref)
	})

	t.Run("empty", func(t *testing.T) {
		assertSame(t, obs.NewSeries(1), &refSeries{})
	})
	t.Run("nil", func(t *testing.T) {
		var rec *obs.Series
		var ref *refSeries
		rec.Record(1, 1, 0, "m", 2)
		ref.Record(1, 1, 0, "m", 2)
		assertSame(t, rec, ref)
	})
}

// FuzzSeriesRoundTrip records arbitrary value bits into the column store
// and the reference and reads every sample back with equal Float64bits.
// Each record takes 9 bytes of input: a control byte, then the value's
// bits. The control byte picks the column (4 nodes x 4 metrics, so ticks
// are ragged, fork and extend shapes, and repeat a column within a tick),
// whether a new tick starts, and the sign of its time (0 and -0 are
// different ticks).
func FuzzSeriesRoundTrip(f *testing.F) {
	record := func(ctl byte, bits uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{ctl}, bits)
	}
	var edge []byte
	for i, b := range []uint64{
		0x7ff8000000000001, 0xfff0000000000001, 0x7ff4000000000000, // NaN payloads, quiet and signalling
		0x8000000000000000, 0, 0x7ff0000000000000, 0xfff0000000000000, // -0, +0, +Inf, -Inf
		1, 0x000fffffffffffff, 0x8000000000000001, // subnormals
		math.Float64bits(math.MaxFloat64), math.Float64bits(0.25), math.Float64bits(0.25),
	} {
		edge = append(edge, record(byte(i%3)|byte(i%2)<<7|byte(i%5/4)<<6, b)...)
	}
	f.Add(edge)
	f.Add(append(record(0x40, 0x8000000000000000), record(0x80, 1)...))
	f.Add([]byte{})

	metrics := [...]string{"cpu_util", "queue_cpu", "load", "forward_frac"}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, ref := obs.NewSeries(1), &refSeries{}
		tm := 0.0
		for ; len(data) >= 9; data = data[9:] {
			ctl := data[0]
			if ctl&0x80 != 0 {
				tm++
			}
			at := tm
			if ctl&0x40 != 0 {
				at = -tm
			}
			node, metric := int(ctl&3)-1, metrics[ctl>>2&3]
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			rec.Record(at, 1, node, metric, v)
			ref.Record(at, 1, node, metric, v)
		}
		got, want := rec.Samples(), ref.Samples()
		if len(got) != len(want) || rec.Len() != ref.Len() {
			t.Fatalf("%d samples (Len %d), want %d", len(got), rec.Len(), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(g.T) != math.Float64bits(w.T) || math.Float64bits(g.Dt) != math.Float64bits(w.Dt) ||
				g.Node != w.Node || g.Metric != w.Metric || math.Float64bits(g.V) != math.Float64bits(w.V) {
				t.Fatalf("sample %d = %+v (v bits %#x), want %+v (v bits %#x)",
					i, g, math.Float64bits(g.V), w, math.Float64bits(w.V))
			}
		}
	})
}

// TestSeriesRetainedBytes: the column store keeps at most 10 bytes per
// sample live (the array of structs kept 48 plus append slack) and at least
// the header byte every value costs. On fillSeries the values change in
// six of their eight bytes (7.70 B, 6.96 of them codes). On the recorded
// run the values code in 3.85 B, but a quarter of its ticks fork a shape
// of their own at 4 B per sample; its ceiling is the 6.69 B measured when
// the codec landed, plus 12 %.
//
// HeapAlloc counts the whole process, so each reading follows collections
// at GOMAXPROCS(1), and the fewest bytes per sample of three fills counts.
func TestSeriesRetainedBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // a sync.Pool (earlier tests' simulation cores) empties over two cycles
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	pinned := pinnedRun().Samples()
	for _, c := range []struct {
		name       string
		fill       func(*obs.Series)
		ceil       float64
		minSamples int
	}{
		{"fill", func(rec *obs.Series) { fillSeries(rec, 16, 870) }, 10, 100_000}, // 870 x (16 x 7 + 3) = 100,050 samples
		{"run", func(rec *obs.Series) {
			for _, sm := range pinned {
				rec.Record(sm.T, sm.Dt, sm.Node, sm.Metric, sm.V)
			}
		}, 7.5, 50_000},
	} {
		perSample, samples := math.Inf(1), 0
		for range 3 {
			before := live()
			rec := obs.NewSeries(0.1)
			c.fill(rec)
			after := live()
			perSample = min(perSample, (float64(after)-float64(before))/float64(rec.Len()))
			samples = rec.Len()
			runtime.KeepAlive(rec)
		}
		t.Logf("%s: %d samples, %.2f bytes/sample live", c.name, samples, perSample)
		if samples < c.minSamples || perSample > c.ceil || perSample < 1 {
			t.Errorf("%s: %d samples retain %.2f bytes each, want >= %d samples at 1 to %g",
				c.name, samples, perSample, c.minSamples, c.ceil)
		}
	}
}

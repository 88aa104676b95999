package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Sample is one time-series observation: metric's value v over the
// simulated-time interval (t-dt, t]. Node is the cluster node the sample
// belongs to, or ClusterWide for whole-cluster signals.
type Sample struct {
	T      float64 `json:"t"`
	Dt     float64 `json:"dt"`
	Node   int     `json:"node"`
	Metric string  `json:"metric"`
	V      float64 `json:"v"`
}

// ClusterWide is the Node value of samples that describe the whole cluster
// (router utilization, throughput, forwarding fraction).
const ClusterWide = -1

// Series records interval-sampled time series from a simulation run: the
// driver registers an engine probe at the Series' interval and appends one
// batch of samples per tick. The recorder is single-threaded, like the
// simulation itself; do not share one Series between parallel runs. The nil
// Series is a valid no-op sink.
//
// Storage is a column store (DESIGN.md section 13): samples sharing (t, dt)
// form a tick with one header, values sit in pointer-free float64 chunks,
// and a tick's (node, metric) sequence — its shape — is shared with the
// previous tick while the probe keeps its column order: 8 bytes per sample
// and no lookup in the steady state.
type Series struct {
	interval float64
	n        int         // samples recorded
	ticks    []tick      // in recording order
	vals     [][]float64 // sample i is vals[i/valChunk][i%valChunk]
	cols     []column    // interned (node, metric) pairs
	colID    map[column]int32
	shapes   [][]int32 // column-id sequences; a tick uses a prefix of one
}

// column is one interned (node, metric) pair.
type column struct {
	node   int
	metric string
}

// tick heads one batch of samples sharing (t, dt): samples off up to the
// next tick's off, sample off+i belonging to column shapes[shape][i].
type tick struct {
	t, dt float64
	off   int
	shape int32
}

// valChunk is the number of values per storage chunk (32 KB): growing
// allocates one more chunk and never copies what is already recorded.
const valChunk = 1 << 12

// CheckInterval reports whether dt can be a sampling interval; the error
// names what is wanted, for a caller to prefix with where dt came from.
func CheckInterval(dt float64) error {
	if !(dt > 0) || math.IsInf(dt, 0) {
		return fmt.Errorf("want a positive, finite number of simulated seconds, got %v", dt)
	}
	return nil
}

// NewSeries returns a recorder whose probe interval is the given number of
// simulated seconds.
func NewSeries(interval float64) *Series {
	if CheckInterval(interval) != nil {
		panic(fmt.Sprintf("obs: series interval must be positive and finite, got %v", interval))
	}
	return &Series{interval: interval, colID: make(map[column]int32), shapes: [][]int32{nil}}
}

// Interval returns the configured sampling interval (0 for the nil Series).
func (s *Series) Interval() float64 {
	if s == nil {
		return 0
	}
	return s.interval
}

// Record appends one sample. The nil Series discards it.
func (s *Series) Record(t, dt float64, node int, metric string, v float64) {
	if s == nil {
		return
	}
	k := len(s.ticks) - 1
	// Bit comparison: -0 and 0 are different timestamps in the artifacts.
	if k < 0 || math.Float64bits(s.ticks[k].t) != math.Float64bits(t) ||
		math.Float64bits(s.ticks[k].dt) != math.Float64bits(dt) {
		var shape int32
		if k >= 0 {
			shape = s.ticks[k].shape
		}
		s.ticks = append(s.ticks, tick{t: t, dt: dt, off: s.n, shape: shape})
		k++
	}
	tk := &s.ticks[k]
	pos := s.n - tk.off
	if sh := s.shapes[tk.shape]; pos >= len(sh) || s.cols[sh[pos]] != (column{node, metric}) {
		s.diverge(tk, pos, column{node, metric})
	}
	if s.n%valChunk == 0 {
		s.vals = append(s.vals, make([]float64, 0, valChunk))
	}
	last := &s.vals[len(s.vals)-1]
	*last = append(*last, v)
	s.n++
}

// diverge gives the tick a shape whose position pos is column c. Past the
// end of its shape the shape grows in place — the ticks sharing it read only
// their own prefix — and inside it the tick forks a copy of the prefix it
// matched. Either way the tick's samples keep their recording order.
func (s *Series) diverge(tk *tick, pos int, c column) {
	id, ok := s.colID[c]
	if !ok {
		id = int32(len(s.cols))
		s.cols = append(s.cols, c)
		s.colID[c] = id
	}
	sh := s.shapes[tk.shape]
	if pos == len(sh) {
		s.shapes[tk.shape] = append(sh, id)
		return
	}
	tk.shape = int32(len(s.shapes))
	s.shapes = append(s.shapes, append(sh[:pos:pos], id))
}

// Len returns the number of recorded samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// end returns one past the last sample of tick k.
func (s *Series) end(k int) int {
	if k+1 < len(s.ticks) {
		return s.ticks[k+1].off
	}
	return s.n
}

// each calls fn on every sample in recording order, reusing one Sample,
// and stops at the first error.
func (s *Series) each(fn func(*Sample) error) error {
	if s == nil {
		return nil
	}
	var sm Sample
	for k := range s.ticks {
		tk := &s.ticks[k]
		sh := s.shapes[tk.shape]
		sm.T, sm.Dt = tk.t, tk.dt
		for i, end := tk.off, s.end(k); i < end; i++ {
			c := &s.cols[sh[i-tk.off]]
			sm.Node, sm.Metric, sm.V = c.node, c.metric, s.vals[i/valChunk][i%valChunk]
			if err := fn(&sm); err != nil {
				return err
			}
		}
	}
	return nil
}

// Samples materialises the recorded samples in recording order: an O(n)
// copy of 48 bytes per sample, so call it once and keep the result.
func (s *Series) Samples() []Sample {
	if s.Len() == 0 {
		return nil
	}
	out := make([]Sample, 0, s.n)
	s.each(func(sm *Sample) error {
		out = append(out, *sm)
		return nil
	})
	return out
}

// WeightedMean returns the dt-weighted mean of one (node, metric) series —
// the time average of the sampled signal. It returns 0 when no matching
// samples exist. It costs one step per tick, plus one scan per shape change.
func (s *Series) WeightedMean(node int, metric string) float64 {
	if s == nil {
		return 0
	}
	id, ok := s.colID[column{node, metric}]
	if !ok {
		return 0
	}
	var num, den float64
	var at []int // positions of the column in the current shape
	shape := int32(-1)
	for k := range s.ticks {
		tk := &s.ticks[k]
		if tk.shape != shape {
			shape, at = tk.shape, at[:0]
			for p, c := range s.shapes[shape] {
				if c == id {
					at = append(at, p)
				}
			}
		}
		end := s.end(k)
		for _, p := range at {
			if i := tk.off + p; i < end {
				num += s.vals[i/valChunk][i%valChunk] * tk.dt
				den += tk.dt
			}
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Metrics returns the distinct metric names recorded, sorted.
func (s *Series) Metrics() []string {
	if s == nil {
		return nil
	}
	seen := make(map[string]bool)
	for _, c := range s.cols {
		seen[c.metric] = true
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// WriteJSONL writes one JSON document per sample, in recording order — the
// artifact format behind the -series CLI flags.
func (s *Series) WriteJSONL(w io.Writer) error {
	out := bufio.NewWriter(w)
	enc := json.NewEncoder(out)
	if err := s.each(func(sm *Sample) error { return enc.Encode(sm) }); err != nil {
		return err
	}
	return out.Flush()
}

// chromeEvent is one entry of the Chrome trace_event JSON array; its args
// are {"name":…} on process metadata and {"value":…} on counters.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Args struct {
		Name  string   `json:"name,omitempty"`
		Value *float64 `json:"value,omitempty"`
	} `json:"args"`
}

// WriteChromeTrace writes the series in Chrome trace_event format, loadable
// in chrome://tracing or Perfetto. Each sample becomes a counter ("ph":"C")
// event; each node is a process (cluster-wide signals are process 0), so
// the trace viewer draws one counter track per (node, metric). Timestamps
// are simulated microseconds. Events are encoded one at a time through a
// reused buffer, so memory does not grow with the series.
func (s *Series) WriteChromeTrace(w io.Writer) error {
	out := bufio.NewWriter(w)
	out.WriteString(`{"traceEvents":[`)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	sep := ""
	emit := func(ev *chromeEvent) error {
		buf.Reset()
		if err := enc.Encode(ev); err != nil {
			return err
		}
		out.WriteString(sep)
		sep = ","
		_, err := out.Write(buf.Bytes()[:buf.Len()-1]) // Encode ends with a newline
		return err
	}
	named := make(map[int]bool)
	var meta, counter chromeEvent
	meta.Name, meta.Ph = "process_name", "M"
	counter.Ph, counter.Args.Value = "C", new(float64)
	err := s.each(func(sm *Sample) error {
		pid := sm.Node + 1 // ClusterWide (-1) maps to process 0
		if !named[pid] {
			named[pid] = true
			meta.Pid, meta.Args.Name = pid, "cluster"
			if sm.Node != ClusterWide {
				meta.Args.Name = fmt.Sprintf("node %d", sm.Node)
			}
			if err := emit(&meta); err != nil {
				return err
			}
		}
		counter.Name, counter.Pid, counter.Ts, *counter.Args.Value = sm.Metric, pid, sm.T*1e6, sm.V
		return emit(&counter)
	})
	if err != nil {
		return err
	}
	out.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return out.Flush()
}

package obs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
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
// form a tick with one header, a tick's (node, metric) sequence — its
// shape — is shared with the previous tick while the probe keeps its column
// order, and each value is stored XORed with the previous value of its own
// column as a header byte plus the XOR's significant bytes. Ticks and values
// sit in pointer-free chunks that are never copied once written.
type Series struct {
	interval float64
	n        int      // samples recorded
	nt       int      // ticks recorded
	ticks    [][]tick // tick k is ticks[k/tickChunk][k%tickChunk]
	vals     [][]byte // coded values in recording order, in valChunk-byte chunks
	cols     []column // interned (node, metric) pairs
	last     []uint64 // per column id: the bits of its latest value
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

const (
	// tickChunk is the number of tick headers per storage chunk (8 KB).
	tickChunk = 1 << 8
	// valChunk is the size of a value chunk in bytes (32 KB). A value is
	// started only where its longest code fits — a header byte and eight,
	// which is also how many bytes put writes and each reads after the
	// header — so it never straddles two chunks.
	valChunk = 1 << 15
	maxCode  = 1 + 8
)

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

// tick returns tick k's header.
func (s *Series) tick(k int) *tick {
	return &s.ticks[k/tickChunk][k%tickChunk]
}

// Record appends one sample. The nil Series discards it.
func (s *Series) Record(t, dt float64, node int, metric string, v float64) {
	if s == nil {
		return
	}
	var tk *tick
	if s.nt > 0 {
		tk = s.tick(s.nt - 1)
	}
	// Bit comparison: -0 and 0 are different timestamps in the artifacts.
	if tk == nil || math.Float64bits(tk.t) != math.Float64bits(t) ||
		math.Float64bits(tk.dt) != math.Float64bits(dt) {
		var shape int32
		if tk != nil {
			shape = tk.shape
		}
		if s.nt%tickChunk == 0 {
			s.ticks = append(s.ticks, make([]tick, tickChunk))
		}
		tk = s.tick(s.nt)
		*tk = tick{t: t, dt: dt, off: s.n, shape: shape}
		s.nt++
	}
	pos := s.n - tk.off
	sh := s.shapes[tk.shape]
	var id int32
	if pos < len(sh) && s.cols[sh[pos]] == (column{node, metric}) {
		id = sh[pos]
	} else {
		id = s.diverge(tk, pos, column{node, metric})
	}
	s.put(id, math.Float64bits(v))
	s.n++
}

// put appends value bits b of column id, coded against the column's
// previous value: x = b XOR previous is stored as one header byte, holding
// x's count of significant bytes n (0 when the value repeats) and of
// trailing zero bytes, then those n bytes, low first. The leading zero
// bytes are the rest of the eight.
func (s *Series) put(id int32, b uint64) {
	x := b ^ s.last[id]
	s.last[id] = b
	var n, trail int
	if x != 0 {
		trail = bits.TrailingZeros64(x) >> 3
		n = 8 - bits.LeadingZeros64(x)>>3 - trail
		x >>= 8 * trail
	}
	if len(s.vals) == 0 || len(s.vals[len(s.vals)-1])+maxCode > valChunk {
		s.vals = append(s.vals, make([]byte, 0, valChunk))
	}
	c := &s.vals[len(s.vals)-1]
	i := len(*c)
	buf := (*c)[:i+maxCode]
	buf[i] = byte(n<<3 | trail)
	binary.LittleEndian.PutUint64(buf[i+1:], x)
	*c = buf[:i+1+n]
}

// diverge gives the tick a shape whose position pos is column c and
// returns c's id. Past the end of its shape the shape grows in place — the
// ticks sharing it read only their own prefix — and inside it the tick
// forks a copy of the prefix it matched. Either way the tick's samples keep
// their recording order.
func (s *Series) diverge(tk *tick, pos int, c column) int32 {
	id, ok := s.colID[c]
	if !ok {
		id = int32(len(s.cols))
		s.cols = append(s.cols, c)
		s.last = append(s.last, 0)
		s.colID[c] = id
	}
	sh := s.shapes[tk.shape]
	if pos == len(sh) {
		s.shapes[tk.shape] = append(sh, id)
		return id
	}
	tk.shape = int32(len(s.shapes))
	s.shapes = append(s.shapes, append(sh[:pos:pos], id))
	return id
}

// Len returns the number of recorded samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// each calls fn on every sample in recording order, reusing one Sample,
// and stops at the first error. It decodes the values in the order put
// coded them, keeping one last value per column.
func (s *Series) each(fn func(*Sample) error) error {
	if s == nil {
		return nil
	}
	var sm Sample
	last := make([]uint64, len(s.cols))
	chunk, at := 0, 0
	for k := 0; k < s.nt; k++ {
		tk := s.tick(k)
		end := s.n
		if k+1 < s.nt {
			end = s.tick(k + 1).off
		}
		sh := s.shapes[tk.shape]
		sm.T, sm.Dt = tk.t, tk.dt
		for _, id := range sh[:end-tk.off] {
			c := s.vals[chunk]
			if at == len(c) {
				chunk, at, c = chunk+1, 0, s.vals[chunk+1]
			}
			h := int(c[at])
			n, trail := h>>3, h&7
			x := binary.LittleEndian.Uint64(c[at+1:at+maxCode]) & (1<<(8*n) - 1)
			at += 1 + n
			last[id] ^= x << (8 * trail)
			col := &s.cols[id]
			sm.Node, sm.Metric, sm.V = col.node, col.metric, math.Float64frombits(last[id])
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

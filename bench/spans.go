package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from this
// package only: no source outside bench/ carries a span.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Tid    int // 0 for the benchmark's own goroutine, caller index + 1 for native requests
	Start  time.Duration
	End    time.Duration
	Args   map[string]any
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced pass runs the same code with tracing off.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

// end closes a span; args are the counts taken at the same boundary.
func (r *recorder) end(id int, args map[string]any) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	r.spans[id-1].Args = args
}

// add records a span whose interval was measured by the caller.
func (r *recorder) add(parent int, name string, tid int, start time.Time, d time.Duration, args map[string]any) {
	if r == nil {
		return
	}
	s := start.Sub(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Tid: tid, Start: s, End: s + d, Args: args})
}

// spanBatch is how many operations one layer-replay span covers: large
// enough that opening and closing the span stays out of the unit cost.
const spanBatch = 10_000

// batches runs op over [0,n) in spans of spanBatch operations under parent
// and returns the time spent inside them.
func (r *recorder) batches(parent int, name string, n int, op func(lo, hi int)) time.Duration {
	var total time.Duration
	for lo := 0; lo < n; lo += spanBatch {
		hi := lo + spanBatch
		if hi > n {
			hi = n
		}
		id := r.begin(parent, name)
		t0 := time.Now()
		op(lo, hi)
		total += time.Since(t0)
		r.end(id, map[string]any{"ops": hi - lo})
	}
	return total
}

// selfMillis sums, per span name, each span's duration minus the part of it
// its child spans cover.
func (r *recorder) selfMillis() map[string]float64 {
	if r == nil {
		return nil
	}
	children := make(map[int][]span)
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[string]float64)
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += float64(s.End-s.Start-covered) / float64(time.Millisecond)
	}
	return self
}

// write emits the spans in the Chrome trace_event format obs.Series uses
// for its counters; complete events ("ph":"X") carry id and parent in args.
func (r *recorder) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Tid,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: args,
		})
	}
	doc := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

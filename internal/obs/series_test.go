package obs_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestSeriesRecordAndWeightedMean(t *testing.T) {
	s := obs.NewSeries(0.5)
	if s.Interval() != 0.5 {
		t.Fatalf("interval = %v", s.Interval())
	}
	// Signal 1 for 1s, then 3 for 1s: time average 2.
	s.Record(1, 1, 0, "util", 1)
	s.Record(2, 1, 0, "util", 3)
	s.Record(2, 1, 1, "util", 10)            // other node must not mix in
	s.Record(2, 1, obs.ClusterWide, "tp", 5) // other metric must not mix in
	if got := weightedMean(s.Samples(), 0, "util"); got != 2 {
		t.Fatalf("weighted mean = %v, want 2", got)
	}
	if got := weightedMean(s.Samples(), 0, "absent"); got != 0 {
		t.Fatalf("weighted mean of absent series = %v, want 0", got)
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	if got := s.Metrics(); len(got) != 2 || got[0] != "tp" || got[1] != "util" {
		t.Fatalf("metrics = %v", got)
	}
}

func TestSeriesNil(t *testing.T) {
	var s *obs.Series
	s.Record(1, 1, 0, "m", 2)
	if s.Len() != 0 || s.Samples() != nil || s.Interval() != 0 || s.Metrics() != nil {
		t.Fatalf("nil series is not inert")
	}
	var sb strings.Builder
	if err := s.WriteJSONL(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil WriteJSONL wrote %q err %v", sb.String(), err)
	}
	if err := s.WriteChromeTrace(&sb); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
}

func TestNewSeriesPanics(t *testing.T) {
	for _, iv := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSeries(%v) did not panic", iv)
				}
			}()
			obs.NewSeries(iv)
		}()
	}
}

func TestCheckInterval(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := obs.CheckInterval(bad)
		if err == nil || !strings.Contains(err.Error(), "want a positive, finite number of simulated seconds") {
			t.Errorf("CheckInterval(%v) = %v, want an error naming what is wanted", bad, err)
		}
	}
	for _, good := range []float64{1e-9, 0.1} {
		if err := obs.CheckInterval(good); err != nil {
			t.Errorf("CheckInterval(%v) = %v, want nil", good, err)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	s := obs.NewSeries(1)
	s.Record(0.25, 0.25, 2, "cpu_util", 0.75)
	s.Record(0.5, 0.25, obs.ClusterWide, "throughput", 123)
	var sb strings.Builder
	if err := s.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), sb.String())
	}
	var got obs.Sample
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	want := obs.Sample{T: 0.25, Dt: 0.25, Node: 2, Metric: "cpu_util", V: 0.75}
	if got != want {
		t.Fatalf("sample = %+v, want %+v", got, want)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	s := obs.NewSeries(1)
	s.Record(1, 1, 0, "cpu_util", 0.5)
	s.Record(1, 1, obs.ClusterWide, "throughput", 42)
	s.Record(2, 1, 0, "cpu_util", 0.75)
	var sb strings.Builder
	if err := s.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Ts   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, sb.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, counters int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "process_name" {
				t.Fatalf("unexpected metadata event %+v", ev)
			}
		case "C":
			counters++
			if _, ok := ev.Args["value"]; !ok {
				t.Fatalf("counter event without value: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 { // node 0 and cluster
		t.Fatalf("got %d process_name events, want 2", meta)
	}
	if counters != 3 {
		t.Fatalf("got %d counter events, want 3", counters)
	}
	// Timestamps are microseconds.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "C" && ev.Name == "throughput" && ev.Ts != 1e6 {
			t.Fatalf("throughput ts = %v, want 1e6", ev.Ts)
		}
	}
}

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/server"
)

// defaultSeed is the seed expected.json was recorded at.
const defaultSeed = 11

// bits is a float64 that JSON carries as its bit pattern, so expected.json
// pins simulated statistics exactly.
type bits float64

func (b bits) MarshalJSON() ([]byte, error) {
	return json.Marshal(fmt.Sprintf("0x%016x", math.Float64bits(float64(b))))
}

func (b *bits) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	u, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return fmt.Errorf("float bit pattern %q: %w", s, err)
	}
	*b = bits(math.Float64frombits(u))
	return nil
}

// simStats are the simulated statistics a pure speed-up must leave
// bit-identical.
type simStats struct {
	Completed       uint64 `json:"completed"`
	Aborted         uint64 `json:"aborted"`
	Events          uint64 `json:"events"`
	ControlMessages uint64 `json:"control_messages"`
	GossipMessages  uint64 `json:"gossip_messages"`
	Throughput      bits   `json:"throughput"`
	MissRate        bits   `json:"miss_rate"`
	ForwardedFrac   bits   `json:"forwarded_frac"`
	LatencyP99      bits   `json:"latency_p99"`
}

func statsOf(r server.Result) simStats {
	return simStats{
		Completed: r.Completed, Aborted: r.Aborted, Events: r.Events,
		ControlMessages: r.ControlMessages, GossipMessages: r.GossipMessages,
		Throughput: bits(r.Throughput), MissRate: bits(r.MissRate),
		ForwardedFrac: bits(r.ForwardedFrac), LatencyP99: bits(r.LatencyP99),
	}
}

// diff names the first field where got departs from s, or returns "".
func (s simStats) diff(got simStats) string {
	ints := []struct {
		name      string
		want, got uint64
	}{
		{"completed", s.Completed, got.Completed},
		{"aborted", s.Aborted, got.Aborted},
		{"events", s.Events, got.Events},
		{"control_messages", s.ControlMessages, got.ControlMessages},
		{"gossip_messages", s.GossipMessages, got.GossipMessages},
	}
	for _, f := range ints {
		if f.want != f.got {
			return fmt.Sprintf("%s want %d got %d", f.name, f.want, f.got)
		}
	}
	floats := []struct {
		name      string
		want, got bits
	}{
		{"throughput", s.Throughput, got.Throughput},
		{"miss_rate", s.MissRate, got.MissRate},
		{"forwarded_frac", s.ForwardedFrac, got.ForwardedFrac},
		{"latency_p99", s.LatencyP99, got.LatencyP99},
	}
	for _, f := range floats {
		if math.Float64bits(float64(f.want)) != math.Float64bits(float64(f.got)) {
			return fmt.Sprintf("%s want %v got %v", f.name, float64(f.want), float64(f.got))
		}
	}
	return ""
}

//go:embed expected.json
var expectedJSON []byte

// expectedStats returns the statistics recorded for one system of one
// workload at the default seed and full scale.
func expectedStats(workload, system string) (simStats, bool) {
	var all map[string]map[string]simStats
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		panic("bench: expected.json: " + err.Error()) // the file is compiled in
	}
	s, ok := all[workload][system]
	return s, ok
}

// statsCheck holds a workload's simulated statistics to the first
// repetition's and, at the default seed and scale, to expected.json.
type statsCheck struct {
	workload string
	pinned   bool // compare with expected.json
	first    map[string]simStats
	diffs    []string
}

func newStatsCheck(w workload, o options) *statsCheck {
	return &statsCheck{workload: w.name, pinned: o.defaults(), first: make(map[string]simStats)}
}

// ok records one run's statistics and reports whether they agree; a
// disagreement is kept as a one-line diff.
func (c *statsCheck) ok(system string, rep int, got simStats) bool {
	first, seen := c.first[system]
	if seen {
		if d := first.diff(got); d != "" {
			c.diffs = append(c.diffs, fmt.Sprintf("%s/%s repetition %d differs from repetition 0: %s", c.workload, system, rep, d))
			return false
		}
		return true
	}
	c.first[system] = got
	if want, ok := expectedStats(c.workload, system); ok && c.pinned {
		if d := want.diff(got); d != "" {
			c.diffs = append(c.diffs, fmt.Sprintf("%s/%s differs from expected.json: %s", c.workload, system, d))
			return false
		}
	}
	return true
}

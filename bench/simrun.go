package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
)

// options are the command line of one pass. scale and outDir are 1 and
// bench/out there; the smoke test shrinks the one and redirects the other.
type options struct {
	seed    int64
	seconds float64 // keep repeating until this much time was measured
	reps    int     // > 0: exactly this many repetitions
	scale   float64
	traced  bool
	outDir  string
}

func (o options) defaults() bool { return o.seed == defaultSeed && o.scale == 1 }

// enough reports whether the repetition loop may stop: never before three
// repetitions (two in the traced pass, which exists for the layer replays),
// then once the requested seconds have been measured.
func (o options) enough(done int, measured time.Duration) bool {
	if o.reps > 0 {
		return done >= o.reps
	}
	if o.traced {
		return done >= 2
	}
	return done >= 3 && measured.Seconds() >= o.seconds
}

// simRun is one server.Run measured from outside.
type simRun struct {
	res    server.Result
	wall   time.Duration
	peakMB float64
	series int // obs.Series samples, when attached
	// traced pass only: runtime.MemStats deltas around the run
	mallocs, allocBytes uint64
}

func measureRun(rec *recorder, parent int, name string, cfg server.Config, tr *trace.Trace) (simRun, error) {
	var r simRun
	heap := watchHeap()
	var before, after runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&before)
	}
	id := rec.begin(parent, "server.Run "+name)
	t0 := time.Now()
	res, err := server.Run(cfg, tr)
	r.wall = time.Since(t0)
	rec.end(id, map[string]any{"events": res.Events, "messages": res.ControlMessages, "completed": res.Completed})
	if rec != nil {
		runtime.ReadMemStats(&after)
		r.mallocs, r.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	r.peakMB = heap.peakMB()
	if err != nil {
		return r, fmt.Errorf("server.Run %s: %w", name, err)
	}
	r.res = res
	if cfg.Series != nil {
		r.series = cfg.Series.Len()
	}
	return r, nil
}

// simOutcome is what the repetitions of a sim workload produced.
type simOutcome struct {
	spec      trace.GenSpec
	tr        *trace.Trace
	setups    []float64 // seconds per set-up
	hostNs    []float64 // per repetition: server.Run wall ns per trace request, summed over systems
	heapMB    []float64 // per repetition: max over systems
	last      []simRun  // the last repetition's runs, one per system
	check     *statsCheck
	attempted int
	failed    int
}

// runSim measures a sim workload: set-up, then repetitions of one
// server.Run per system on this goroutine. A run whose simulated statistics
// differ from the first repetition's, or from expected.json at the default
// seed and scale, counts all its requests as failed.
func runSim(rec *recorder, parent int, w workload, o options, traces *traceCache) (*simOutcome, error) {
	spec, err := w.genSpec(o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	setup := rec.begin(parent, "setup")
	g, err := traces.setup(rec, setup, spec)
	rec.end(setup, nil)
	if err != nil {
		return nil, err
	}
	tr := g.tr
	out := &simOutcome{spec: spec, tr: tr, setups: g.secs, check: newStatsCheck(w, o)}
	requests := tr.NumRequests()

	var measured time.Duration
	for rep := 0; !o.enough(rep, measured); rep++ {
		repSpan := rec.begin(parent, "repetition")
		var wall time.Duration
		var peak float64
		out.last = out.last[:0]
		for _, sys := range w.systems {
			r, err := measureRun(rec, repSpan, sys.name, w.config(sys, o.seed, w.observed), tr)
			if err != nil {
				return nil, err
			}
			wall += r.wall
			if r.peakMB > peak {
				peak = r.peakMB
			}
			out.last = append(out.last, r)
			out.attempted += requests
			out.failed += int(r.res.Aborted)

			if !out.check.ok(sys.name, rep, statsOf(r.res)) {
				out.failed += requests
			}
		}
		rec.end(repSpan, nil)
		measured += wall
		out.hostNs = append(out.hostNs, float64(wall.Nanoseconds())/float64(requests))
		out.heapMB = append(out.heapMB, peak)
	}
	return out, nil
}

// simResult turns a sim workload's outcome into its printed result.
func simResult(rec *recorder, parent int, w workload, o options, traces *traceCache) (*result, error) {
	out, err := runSim(rec, parent, w, o, traces)
	if err != nil {
		return nil, err
	}
	res := &result{Detail: detail{Reps: len(out.hostNs), SimStats: out.check.first, Mismatches: out.check.diffs}}
	res.Attempted, res.Failed = out.attempted, out.failed
	tested := out.last[len(out.last)-1].res

	if !o.traced {
		res.endToEnd(out.setups, out.hostNs, out.heapMB, tested.Throughput)
		return res, nil
	}

	m := newMetricSet(perLayer)
	m.set("trace.generate_s", out.setups[0])
	if out.spec.Mode == trace.ModeChurn {
		m.set("shotnoise.generate_s", out.setups[0])
	}
	layers := rec.begin(parent, "layers")
	err = simLayers(rec, layers, w, o, out, m)
	rec.end(layers, nil)
	if err != nil {
		return nil, err
	}
	res.Metrics = m.values
	return res, nil
}

// endToEnd fills in the end-to-end metrics: the medians of the set-up times
// and of the repetitions' host ns per request and heap peaks, and the
// simulated throughput. The samples go to the detail.
func (res *result) endToEnd(setupS, hostNs, heapMB []float64, throughput float64) {
	res.Detail.EndToEnd = map[string]sampleStat{
		"setup_s":            summarize(setupS),
		"host_ns_per_req":    summarize(hostNs),
		"peak_heap_mb":       summarize(heapMB),
		"sim_throughput_rps": summarize([]float64{throughput}),
	}
	m := newMetricSet(endToEnd)
	for name, st := range res.Detail.EndToEnd {
		m.set(name, st.Median)
	}
	res.Metrics = m.values
}

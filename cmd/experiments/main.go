// Command experiments regenerates every table and figure of the paper's
// evaluation and prints them in the order they appear in the paper. The
// output of a full run (-scale 0.2) is what EXPERIMENTS.md records.
//
// Usage:
//
//	experiments                 # everything at the default scale, all cores
//	experiments -workers 1      # identical output, one simulation at a time
//	experiments -scale 0.05     # quick pass
//	experiments -only figure8   # one experiment
//	experiments -only chash     # web-scale consistent-hashing sweep (runs only when named)
//	experiments -only scalefigs # Figure 7-10 families at N up to 1024 (runs only when named)
//	experiments -only churn     # shot-noise churn + diurnal study (runs only when named)
//	experiments -only flash     # flash-crowd study (runs only when named)
//	experiments -csv            # machine-readable figures
//	experiments -progress       # report each finished simulation (and the
//	                            # process heap high-water mark) on stderr
//
// Simulations within an experiment run concurrently on a deterministic
// worker pool (internal/runner): the figures are bit-identical for every
// -workers value.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/trace"
)

// experimentNames lists every experiment -only accepts (case-insensitively),
// in the order a full run prints them; the last four run only when named.
var experimentNames = []string{
	"table1", "figures3to6", "table2", "figure7", "figure8", "figure9", "figure10",
	"section5.2", "sensitivity", "memory", "policies", "persistent", "failover",
	"section6", "heterogeneous", "twotier", "slownode", "latency",
	"chash", "scalefigs", "churn", "flash",
}

func main() {
	var (
		scale    = flag.Float64("scale", 0.2, "request-count scale for the simulation figures")
		only     = flag.String("only", "", "run a single experiment (table1, figures3to6, table2, figure7..figure10, section5.2, sensitivity, memory, policies, persistent, failover, section6, heterogeneous, twotier, slownode, latency; chash, scalefigs, churn, and flash — the web-scale sweeps and the non-stationary workload studies — run only when named explicitly)")
		profiles = flag.String("profiles", "", "per-node hardware spec, e.g. 4xfast:2.0/1.5/125000/64MB,12xslow:1.0/1.0/125000/32MB: run the weighted-policy comparison on that cluster, then exit")
		csv      = flag.Bool("csv", false, "emit figures as CSV instead of tables")
		chart    = flag.Bool("chart", false, "draw figures as ASCII charts too")
		workers  = flag.Int("workers", 0, "concurrent simulations (0: all cores, 1: sequential)")
		progress = flag.Bool("progress", false, "report each finished simulation and the heap high-water mark on stderr")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	)
	flag.Parse()

	if err := trace.CheckScale(*scale); err != nil {
		fatalIf(fmt.Errorf("-scale: %w", err))
	}
	if *only != "" && !slices.ContainsFunc(experimentNames, func(name string) bool { return strings.EqualFold(name, *only) }) {
		fatalIf(fmt.Errorf("-only: unknown experiment %q (valid: %s)", *only, strings.Join(experimentNames, ", ")))
	}
	if *cpuProfile != "" || *memProfile != "" {
		stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
		fatalIf(err)
		defer func() { fatalIf(stopProfiles()) }()
	}

	opts := experiments.DefaultOptions()
	opts.Scale = *scale
	opts.Workers = *workers
	if *progress {
		var heapMu sync.Mutex
		var heapHigh uint64
		opts.Progress = func(p runner.Progress) {
			status := "ok"
			if p.Job.Err != nil {
				status = "FAILED: " + p.Job.Err.Error()
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapMu.Lock()
			if ms.HeapAlloc > heapHigh {
				heapHigh = ms.HeapAlloc
			}
			high := heapHigh
			heapMu.Unlock()
			fmt.Fprintf(os.Stderr, "experiments: [%d/%d] %s (%v) heap %dMB (max %dMB) %s\n",
				p.Done, p.Total, p.Job.Key, p.Job.Elapsed.Round(time.Millisecond),
				ms.HeapAlloc>>20, high>>20, status)
		}
	}
	pool := opts.Pool()

	if *profiles != "" {
		specs, err := server.ParseProfiles(*profiles)
		fatalIf(err)
		spec, err := trace.PaperTrace("calgary")
		fatalIf(err)
		tr, err := trace.Generate(spec.Scaled(opts.Scale / 2))
		fatalIf(err)
		_, text, err := experiments.ProfileStudy(pool, tr, specs)
		fatalIf(err)
		fmt.Println(text)
		return
	}

	// The web-scale chash sweep (10^7-file catalog, clusters to 1024 nodes)
	// generates a large trace and runs minutes, so it never rides along with
	// the default everything pass: it runs only when asked for by name.
	if strings.EqualFold(*only, "chash") {
		start := time.Now()
		fig, _, text, err := experiments.ChashScaleStudy(pool,
			[]int{16, 64, 256, 1024}, 10_000_000, 300_000)
		fatalIf(err)
		fmt.Println(text)
		if *csv {
			fmt.Println(fig.CSV())
		} else {
			fmt.Println(fig.Render())
		}
		if *chart {
			fmt.Println(fig.Chart(60, 16))
		}
		fmt.Fprintf(os.Stderr, "experiments: done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	// The large-cluster figure sweep reruns the Figure 7-10 families at
	// N up to 1024; like chash it runs only when named (a -scale 1 pass is
	// what results/scale-figures.txt records).
	if strings.EqualFold(*only, "scalefigs") {
		start := time.Now()
		figs, _, text, err := experiments.ScaleFiguresStudy(pool,
			[]int{64, 256, 1024}, *scale)
		fatalIf(err)
		fmt.Println(text)
		for _, fig := range figs {
			if *csv {
				fmt.Println(fig.CSV())
			} else {
				fmt.Println(fig.Render())
			}
			if *chart {
				fmt.Println(fig.Chart(60, 16))
			}
		}
		fmt.Fprintf(os.Stderr, "experiments: done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	// The non-stationary studies (shot-noise churn, diurnal load, flash
	// crowds) likewise run only when named: they synthesize their own traces
	// and instrument every run with a time-series recorder.
	if strings.EqualFold(*only, "churn") {
		start := time.Now()
		_, text, err := experiments.ChurnStudy(pool, opts.Scale)
		fatalIf(err)
		fmt.Println(text)
		fmt.Fprintf(os.Stderr, "experiments: done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if strings.EqualFold(*only, "flash") {
		start := time.Now()
		_, text, err := experiments.FlashStudy(pool, opts.Scale)
		fatalIf(err)
		fmt.Println(text)
		fmt.Fprintf(os.Stderr, "experiments: done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	want := func(name string) bool {
		return *only == "" || strings.EqualFold(*only, name)
	}
	emit := func(fig experiments.Figure) {
		if *csv {
			fmt.Println(fig.CSV())
		} else {
			fmt.Println(fig.Render())
		}
		if *chart {
			fmt.Println(fig.Chart(60, 16))
		}
	}

	start := time.Now()

	if want("table1") {
		fmt.Println(experiments.Table1())
	}

	if want("figures3to6") {
		fig3, fig4, fig5 := experiments.ModelSurfaces()
		fmt.Print(experiments.SurfaceSummary(fig3))
		fmt.Print(experiments.SurfaceSummary(fig4))
		fmt.Print(experiments.SurfaceSummary(fig5))
		emit(experiments.Figure6(fig5))
		emit(experiments.MemorySweep())
		emit(experiments.ReplicationSweep())
	}

	if want("table2") {
		_, text := experiments.Table2(opts)
		fmt.Println(text)
	}

	var runs []*experiments.TraceRun
	for _, name := range []string{"calgary", "clarknet", "nasa", "rutgers"} {
		figID := experiments.FigureIDs[name]
		if !want(figID) && !want("section5.2") {
			continue
		}
		run, err := experiments.RunTrace(name, opts)
		fatalIf(err)
		runs = append(runs, run)
		if want(figID) {
			emit(run.ThroughputFigure(figID))
			fmt.Println(run.Summary())
		}
	}

	if want("section5.2") {
		for _, run := range runs {
			emit(run.MissRateFigure())
			emit(run.IdleTimeFigure())
			emit(run.ForwardingFigure())
		}
	}

	if want("sensitivity") {
		spec, err := trace.PaperTrace("calgary")
		fatalIf(err)
		tr, err := trace.Generate(spec.Scaled(opts.Scale / 2))
		fatalIf(err)
		_, text, err := experiments.L2SSensitivity(pool, tr, 16)
		fatalIf(err)
		fmt.Println(text)
	}

	if want("memory") {
		for _, name := range []string{"calgary", "nasa"} {
			spec, err := trace.PaperTrace(name)
			fatalIf(err)
			tr, err := trace.Generate(spec.Scaled(opts.Scale))
			fatalIf(err)
			_, text, err := experiments.MemoryScaling(pool, tr, opts.Nodes)
			fatalIf(err)
			fmt.Println(text)
		}
	}

	if want("policies") {
		spec, err := trace.PaperTrace("clarknet")
		fatalIf(err)
		tr, err := trace.Generate(spec.Scaled(opts.Scale / 2))
		fatalIf(err)
		_, text, err := experiments.PolicyComparison(pool, tr, 16)
		fatalIf(err)
		fmt.Println(text)
	}

	if want("persistent") {
		spec, err := trace.PaperTrace("clarknet")
		fatalIf(err)
		spec = spec.Scaled(opts.Scale / 2)
		spec.Clients = 5000
		tr, err := trace.Generate(spec)
		fatalIf(err)
		_, text, err := experiments.PersistentStudy(pool, tr, 16, 7)
		fatalIf(err)
		fmt.Println(text)
	}

	if want("failover") {
		spec, err := trace.PaperTrace("calgary")
		fatalIf(err)
		tr, err := trace.Generate(spec.Scaled(opts.Scale / 2))
		fatalIf(err)
		text, err := experiments.FailoverStudy(pool, tr, 16)
		fatalIf(err)
		fmt.Println(text)
		fig, err := experiments.FailoverTimeline(tr, 16, 3)
		fatalIf(err)
		fmt.Println(fig.Chart(60, 12))
	}

	if want("section6") {
		spec, err := trace.PaperTrace("clarknet")
		fatalIf(err)
		tr, err := trace.Generate(spec.Scaled(opts.Scale / 2))
		fatalIf(err)
		_, text, err := experiments.Section6Study(pool, tr, 16)
		fatalIf(err)
		fmt.Println(text)
	}

	if want("heterogeneous") {
		spec, err := trace.PaperTrace("calgary")
		fatalIf(err)
		tr, err := trace.Generate(spec.Scaled(opts.Scale / 2))
		fatalIf(err)
		_, text, err := experiments.HeterogeneousStudy(pool, tr, 16, 0.5)
		fatalIf(err)
		fmt.Println(text)
	}

	if want("twotier") {
		spec, err := trace.PaperTrace("calgary")
		fatalIf(err)
		tr, err := trace.Generate(spec.Scaled(opts.Scale / 2))
		fatalIf(err)
		_, text, err := experiments.TwoTierStudy(pool, tr, 16, 4)
		fatalIf(err)
		fmt.Println(text)
	}

	if want("slownode") {
		spec, err := trace.PaperTrace("calgary")
		fatalIf(err)
		tr, err := trace.Generate(spec.Scaled(opts.Scale / 2))
		fatalIf(err)
		_, text, err := experiments.SlowNodeStudy(pool, tr, 16, 5, 0.5)
		fatalIf(err)
		fmt.Println(text)
	}

	if want("latency") {
		spec, err := trace.PaperTrace("calgary")
		fatalIf(err)
		tr, err := trace.Generate(spec.Scaled(opts.Scale / 2))
		fatalIf(err)
		_, text, err := experiments.LatencyStudy(pool, tr, 16,
			[]float64{500, 1000, 2000, 3000, 4000, 5000})
		fatalIf(err)
		fmt.Println(text)
	}

	fmt.Fprintf(os.Stderr, "experiments: done in %v\n", time.Since(start).Round(time.Millisecond))
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

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
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
)

// experiment is one name -only accepts (case-insensitively). run returns
// the text the experiment prints.
type experiment struct {
	name  string
	named bool // runs only when -only names it
	run   func() (string, error)
}

func main() {
	var (
		scale    = flag.Float64("scale", 0.2, "request-count scale for the simulation figures")
		only     = flag.String("only", "", "run a single experiment")
		workers  = flag.Int("workers", 0, "concurrent simulations (0: all cores, 1: sequential)")
		progress = flag.Bool("progress", false, "report each finished simulation and the heap high-water mark on stderr")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	)
	opts := experiments.DefaultOptions()
	all := experimentList(&opts)
	var names, named []string
	for _, e := range all {
		names = append(names, e.name)
		if e.named {
			named = append(named, e.name)
		}
	}
	flag.Lookup("only").Usage = fmt.Sprintf("run a single experiment, one of %s; %s run only when named",
		strings.Join(names, ", "), strings.Join(named, ", "))
	flag.Parse()

	if err := trace.CheckScale(*scale); err != nil {
		fatalIf(fmt.Errorf("-scale: %w", err))
	}
	if *only != "" && !slices.ContainsFunc(names, func(name string) bool { return strings.EqualFold(name, *only) }) {
		fatalIf(fmt.Errorf("-only: unknown experiment %q (valid: %s)", *only, strings.Join(names, ", ")))
	}
	if *cpuProfile != "" || *memProfile != "" {
		stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
		fatalIf(err)
		defer func() { fatalIf(stopProfiles()) }()
	}

	opts.Scale = *scale
	opts.Workers = *workers
	if *progress {
		// The pool serializes its progress calls and the experiments run
		// one at a time, so the high-water mark needs no lock.
		var heapHigh uint64
		opts.Progress = func(p runner.Progress) {
			status := "ok"
			if p.Job.Err != nil {
				status = "FAILED: " + p.Job.Err.Error()
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapHigh = max(heapHigh, ms.HeapAlloc)
			fmt.Fprintf(os.Stderr, "experiments: [%d/%d] %s (%v) heap %dMB (max %dMB) %s\n",
				p.Done, p.Total, p.Job.Key, p.Job.Elapsed.Round(time.Millisecond),
				ms.HeapAlloc>>20, heapHigh>>20, status)
		}
	}

	start := time.Now()
	for _, e := range all {
		if strings.EqualFold(*only, e.name) || *only == "" && !e.named {
			text, err := e.run()
			fatalIf(err)
			fmt.Println(text)
		}
	}
	fmt.Fprintf(os.Stderr, "experiments: done in %v\n", time.Since(start).Round(time.Millisecond))
}

// experimentList is every experiment in the order a full run prints them.
// The web-scale sweeps (chash's 10^7-file catalog and clusters to 1024
// nodes run minutes) and the non-stationary studies (which synthesize
// their own traces and instrument every run with a time-series recorder)
// never ride along with the default pass: they run only when named.
// opts is read when an experiment runs, after flag parsing.
func experimentList(opts *experiments.Options) []experiment {
	// paper generates a paper trace at share of the -scale.
	paper := func(name string, share float64) (*trace.Trace, error) {
		spec, err := trace.PaperTrace(name)
		if err != nil {
			return nil, err
		}
		return trace.Generate(spec.Scaled(opts.Scale * share))
	}
	// Figures 7-10, Section 5.2 and the 32 MB half of memory share one
	// sweep per trace.
	runs := map[string]*experiments.TraceRun{}
	traceRun := func(name string) (*experiments.TraceRun, error) {
		if runs[name] != nil {
			return runs[name], nil
		}
		tr, err := paper(name, 1)
		if err != nil {
			return nil, err
		}
		runs[name], err = experiments.RunWorkload(tr, *opts)
		return runs[name], err
	}
	figure := func(id, name string) func() (string, error) {
		return func() (string, error) {
			run, err := traceRun(name)
			if err != nil {
				return "", err
			}
			return run.ThroughputFigure(id).Render() + "\n" + run.Summary(), nil
		}
	}
	// onHalf runs a study on a paper trace at half the -scale, the size
	// every extension study uses.
	onHalf := func(name string, study func(tr *trace.Trace) (string, error)) func() (string, error) {
		return func() (string, error) {
			tr, err := paper(name, 0.5)
			if err != nil {
				return "", err
			}
			return study(tr)
		}
	}

	return []experiment{
		{"table1", false, func() (string, error) { return experiments.Table1(), nil }},
		{"figures3to6", false, func() (string, error) {
			fig3, fig4, fig5 := experiments.ModelSurfaces()
			return experiments.SurfaceSummary(fig3) + experiments.SurfaceSummary(fig4) +
				experiments.SurfaceSummary(fig5) + experiments.Figure6(fig5).Render() + "\n" +
				experiments.MemorySweep().Render() + "\n" + experiments.ReplicationSweep().Render(), nil
		}},
		{"table2", false, func() (string, error) {
			_, text := experiments.Table2(*opts)
			return text, nil
		}},
		{"figure7", false, figure("figure7", "calgary")},
		{"figure8", false, figure("figure8", "clarknet")},
		{"figure9", false, figure("figure9", "nasa")},
		{"figure10", false, figure("figure10", "rutgers")},
		{"section5.2", false, func() (string, error) {
			var figs []string
			for _, name := range []string{"calgary", "clarknet", "nasa", "rutgers"} {
				run, err := traceRun(name)
				if err != nil {
					return "", err
				}
				figs = append(figs, run.MissRateFigure().Render(), run.IdleTimeFigure().Render(),
					run.ForwardingFigure().Render())
			}
			return strings.Join(figs, "\n"), nil
		}},
		{"sensitivity", false, onHalf("calgary", func(tr *trace.Trace) (string, error) {
			return textOf(experiments.L2SSensitivity(opts.Pool(), tr, 16))
		})},
		{"memory", false, func() (string, error) {
			var texts []string
			for _, name := range []string{"calgary", "nasa"} {
				run, err := traceRun(name)
				if err != nil {
					return "", err
				}
				tr, err := paper(name, 1)
				if err != nil {
					return "", err
				}
				_, text, err := experiments.MemoryScaling(tr, run, *opts)
				if err != nil {
					return "", err
				}
				texts = append(texts, text)
			}
			return strings.Join(texts, "\n"), nil
		}},
		{"policies", false, onHalf("clarknet", func(tr *trace.Trace) (string, error) {
			return textOf(experiments.PolicyComparison(opts.Pool(), tr, 16))
		})},
		{"persistent", false, func() (string, error) {
			spec, err := trace.PaperTrace("clarknet")
			if err != nil {
				return "", err
			}
			spec = spec.Scaled(opts.Scale / 2)
			spec.Clients = 5000
			tr, err := trace.Generate(spec)
			if err != nil {
				return "", err
			}
			return textOf(experiments.PersistentStudy(opts.Pool(), tr, 16, 7))
		}},
		{"failover", false, onHalf("calgary", func(tr *trace.Trace) (string, error) {
			return textOf(experiments.FailoverStudy(opts.Pool(), tr, 16))
		})},
		{"section6", false, onHalf("clarknet", func(tr *trace.Trace) (string, error) {
			return textOf(experiments.Section6Study(opts.Pool(), tr, 16))
		})},
		{"heterogeneous", false, onHalf("calgary", func(tr *trace.Trace) (string, error) {
			return textOf(experiments.HeterogeneousStudy(opts.Pool(), tr, 16, 0.5))
		})},
		{"twotier", false, onHalf("calgary", func(tr *trace.Trace) (string, error) {
			return textOf(experiments.TwoTierStudy(opts.Pool(), tr, 16, 4))
		})},
		{"slownode", false, onHalf("calgary", func(tr *trace.Trace) (string, error) {
			return textOf(experiments.SlowNodeStudy(opts.Pool(), tr, 16, 5, 0.5))
		})},
		{"latency", false, onHalf("calgary", func(tr *trace.Trace) (string, error) {
			return textOf(experiments.LatencyStudy(opts.Pool(), tr, 16, []float64{500, 1000, 2000, 3000, 4000, 5000}))
		})},
		{"chash", true, func() (string, error) {
			return experiments.ChashScaleStudy(opts.Pool(), []int{16, 64, 256, 1024}, 10_000_000, 300_000)
		}},
		{"scalefigs", true, func() (string, error) {
			return experiments.ScaleFiguresStudy(opts.Pool(), []int{64, 256, 1024}, opts.Scale)
		}},
		{"churn", true, func() (string, error) {
			_, _, text, err := experiments.ChurnStudy(opts.Pool(), opts.Scale)
			return text, err
		}},
		{"flash", true, func() (string, error) {
			_, _, text, err := experiments.FlashStudy(opts.Pool(), opts.Scale)
			return text, err
		}},
	}
}

// textOf keeps the printed text of a study's results.
func textOf[T any](_ T, text string, err error) (string, error) { return text, err }

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

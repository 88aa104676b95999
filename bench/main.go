// Command bench is the repository benchmark: six named workloads over the
// simulator and the native cluster, end-to-end metrics with tracing off and
// per-layer metrics from a separate traced pass. BENCHMARK.json at the
// repository root declares the same names; README.md explains each.
//
//	go run ./bench                                   # all workloads, one JSON document
//	go run ./bench -trace 1                          # per-layer metrics, bench/out/trace.json
//	go run ./bench -workload miss16 -seed 3 -seconds 4 -trace 0
//	go run ./bench -compare run1.json run2.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// summary is the contract's result object: with -workload it is the last
// line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is what the document says about a workload beyond its summary.
type detail struct {
	Reps            int                   `json:"reps"`
	WallS           float64               `json:"wall_s"`
	EndToEnd        map[string]sampleStat `json:"end_to_end,omitempty"`
	NativeLatencyUs map[string]sampleStat `json:"native_latency_us,omitempty"`
	SimStats        map[string]simStats   `json:"sim_stats"`
	Mismatches      []string              `json:"mismatches,omitempty"`
}

type result struct {
	summary
	Detail detail `json:"detail"`
}

// environment stamps every output document.
type environment struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Revision   string  `json:"revision"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Traced     bool    `json:"traced"`
	Load       string  `json:"load"`
	PassWallS  float64 `json:"pass_wall_s"`
}

type document struct {
	Env        environment        `json:"env"`
	Workloads  map[string]*result `json:"workloads"`
	SpanSelfMs map[string]float64 `json:"span_self_ms,omitempty"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func revision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runPass runs the selected workloads and returns the document.
func runPass(selected []workload, o options, stderr io.Writer) (*document, error) {
	start := time.Now()
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	doc := &document{
		Env: environment{
			Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			CPU: cpuModel(), Revision: revision(), Seed: o.seed, Scale: o.scale, Traced: o.traced,
			Load: fmt.Sprintf("sim workloads run server.Run on one goroutine; native4 is a closed loop of %d callers, one connection each per node, in this process", callers),
		},
		Workloads: make(map[string]*result),
	}
	var traces traceCache
	for _, w := range selected {
		t0 := time.Now()
		span := rec.begin(0, w.name)
		var res *result
		var err error
		if w.native {
			traces = traceCache{} // a live cluster shares no trace: the heap it measures is its own
			res, err = nativeResult(rec, span, w, o)
		} else {
			res, err = simResult(rec, span, w, o, &traces)
		}
		rec.end(span, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Correct = res.Failed == 0
		res.Detail.WallS = time.Since(t0).Seconds()
		for _, d := range res.Detail.Mismatches {
			fmt.Fprintln(stderr, "bench:", d)
		}
		doc.Workloads[w.name] = res
	}
	doc.Env.PassWallS = time.Since(start).Seconds()
	if rec != nil {
		doc.SpanSelfMs = rec.selfMillis()
		if err := rec.write(filepath.Join(o.outDir, "trace.json")); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return doc, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: 1, outDir: "bench/out"}
	name := fs.String("workload", "", "run only this workload and end with the one-line result object (default: all of "+workloadNames()+")")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "every input derives from it")
	fs.Float64Var(&o.seconds, "seconds", 4, "repeat until this many seconds were measured, at least three times")
	trace := fs.Int("trace", 0, "1 runs the traced pass: per-layer metrics and bench/out/trace.json")
	fs.IntVar(&o.reps, "reps", 0, "repeat exactly this often, ignoring -seconds")
	compare := fs.Bool("compare", false, "compare two documents: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two documents")
			return 2
		}
		return compareDocs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || o.reps < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	o.traced = *trace == 1
	return execute(o, *name, stdout, stderr)
}

// execute runs one pass over the named workload, or over all of them when
// name is empty, and prints the document; a named workload's one-line
// result object follows it.
func execute(o options, name string, stdout, stderr io.Writer) int {
	selected := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (valid: %s)\n", name, workloadNames())
			return 2
		}
		selected = []workload{w}
	}
	doc, err := runPass(selected, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, res := range doc.Workloads {
		if !res.Correct {
			code = 1
		}
	}
	if name != "" {
		if err := enc.Encode(doc.Workloads[name].summary); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

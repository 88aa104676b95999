// Command clustersim runs trace-driven cluster server simulations: pick a
// distribution policy (or several), a workload, and a cluster size, and it
// reports the Section 5 metrics.
//
// Policies are resolved through the policy registry (policy.ParseSpec), so
// an unknown -system lists every valid name and alias. A system may be a
// bare name or a parameterized spec, name:key=value[,key=value...], e.g.
// "chash:vnodes=128,load=1.25,d=2". Multi-system comparison mode runs
// several policies over the same workload on a deterministic parallel
// worker pool and prints them side by side.
//
// Usage:
//
//	clustersim -system l2s -trace calgary -nodes 16 -scale 0.2
//	clustersim -system lard -in real.trace -nodes 8 -mem 128
//	clustersim -system chash:vnodes=64,load=1.25 -nodes 128
//	clustersim -system l2s -trace nasa -nodes 16 -fail 3 -failat 0.5
//	clustersim -system l2s:T=30,delta=8,oracle=true -nodes 16   # L2S tunables
//	clustersim -system cached-dns:ttl=100 -trace nasa:reqs=200000
//	clustersim -system l2s,lard,chash-bounded -nodes 16  # comparison mode
//	clustersim -system all -workers 4                    # every policy
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	var (
		system   = flag.String("system", "l2s", "policy spec (name[:k=v,...]), comma-separated list, or \"all\" (valid: "+strings.Join(policy.NamesAndAliases(), ", ")+")")
		name     = flag.String("trace", "calgary", "generation spec: a paper trace (calgary, clarknet, nasa, rutgers) or mode[:key=value,...], e.g. churn:files=20000,reqs=500000")
		in       = flag.String("in", "", "trace file (overrides -trace)")
		scale    = flag.Float64("scale", 0.2, "request-count scale for generated traces")
		nodes    = flag.Int("nodes", 16, "cluster size")
		profSpec = flag.String("profiles", "", "per-node hardware, e.g. 4xfast:2.0/1.5/125000/64MB,12xslow:1.0/1.0/125000/32MB (count must match -nodes)")
		memMB    = flag.Int64("mem", 32, "per-node memory in MB")
		window   = flag.Int("window", 12, "outstanding connections per node")
		warm     = flag.Float64("warm", 0.4, "warm-up fraction of the trace")
		failNode = flag.Int("fail", -1, "node to crash mid-run (-1: none)")
		failAt   = flag.Float64("failat", 0.5, "fraction of the trace at which the crash happens")
		persist  = flag.Bool("persistent", false, "HTTP/1.1 persistent connections")
		rpc      = flag.Float64("rpc", 7, "mean requests per persistent connection")
		dfs      = flag.Bool("dfs", false, "explicit distributed file system (remote disk reads)")
		rate     = flag.Float64("rate", 0, "open-loop Poisson arrival rate (0: saturation)")
		seed     = flag.Int64("seed", 0, "base RNG seed (0: policy defaults)")
		workers  = flag.Int("workers", 0, "concurrent simulations in comparison mode (0: all cores)")
		verbose  = flag.Bool("v", false, "per-node detail")

		seriesOut = flag.String("series", "", "write sampled per-resource time series as JSONL to this file (single-system mode)")
		chromeOut = flag.String("chrometrace", "", "write the sampled series as a Chrome trace_event file (single-system mode)")
		seriesDt  = flag.Float64("seriesdt", 0.01, "sampling interval in simulated seconds for -series/-chrometrace")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	)
	flag.Parse()

	if err := trace.CheckScale(*scale); err != nil {
		fatalIf(fmt.Errorf("-scale: %w", err))
	}
	if *persist && !(*rpc >= 1) {
		fatalIf(fmt.Errorf("-rpc: a persistent connection carries at least 1 request on average, got %v", *rpc))
	}
	if *seriesOut != "" || *chromeOut != "" {
		if err := obs.CheckInterval(*seriesDt); err != nil {
			fatalIf(fmt.Errorf("-seriesdt: %w", err))
		}
	}
	if *cpuProfile != "" || *memProfile != "" {
		stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
		fatalIf(err)
		defer func() { fatalIf(stopProfiles()) }()
	}

	var tr *trace.Trace
	var err error
	if *in != "" {
		f, err2 := os.Open(*in)
		fatalIf(err2)
		tr, err = trace.Read(f)
		f.Close()
	} else {
		var spec trace.GenSpec
		spec, err = trace.ParseGenSpec(*name)
		if err == nil {
			tr, err = trace.Generate(spec.Scaled(*scale))
		}
	}
	fatalIf(err)

	var profiles []server.NodeProfile
	if *profSpec != "" {
		profiles, err = server.ParseProfiles(*profSpec)
		fatalIf(err)
		if len(profiles) != *nodes {
			fatalIf(fmt.Errorf("-profiles describes %d nodes, -nodes is %d", len(profiles), *nodes))
		}
	}

	// Every policy is built by name through the registry; there is no
	// per-system construction code here.
	buildConfig := func(spec string) server.Config {
		opts := []server.Option{
			server.WithPolicy(spec),
			server.WithCacheBytes(*memMB << 20),
			server.WithWindow(*window),
			server.WithWarmFraction(*warm),
			server.WithSeed(*seed),
		}
		if profiles != nil {
			opts = append(opts, server.WithProfiles(profiles...))
		}
		if *failNode >= 0 {
			opts = append(opts, server.WithFailure(*failNode, *failAt))
		}
		if *persist {
			opts = append(opts, server.WithPersistent(*rpc))
		}
		if *dfs {
			opts = append(opts, server.WithDistributedFS())
		}
		if *rate != 0 { // NaN and negative rates go on to Validate
			opts = append(opts, server.WithArrivalRate(*rate))
		}
		return server.NewConfig(server.CustomServer, *nodes, opts...)
	}

	// SplitSpecs (not a raw comma split) keeps parameterized specs such as
	// "chash:vnodes=64,load=1.25" intact while still allowing lists.
	names := policy.SplitSpecs(*system)
	if *system == "all" {
		names = policy.Names()
	}
	if len(names) > 1 {
		if *seriesOut != "" || *chromeOut != "" {
			fatalIf(fmt.Errorf("-series/-chrometrace need a single system, got %q", *system))
		}
		compare(names, buildConfig, tr, *workers, *memMB)
		return
	}

	cfg := buildConfig(names[0])
	var rec *obs.Series
	if *seriesOut != "" || *chromeOut != "" {
		rec = obs.NewSeries(*seriesDt)
		cfg.Series = rec
	}
	r, err := server.Run(cfg, tr)
	fatalIf(err)
	fatalIf(writeSeries(rec, *seriesOut, *chromeOut))

	fmt.Printf("system=%s nodes=%d trace=%s requests=%d mem=%dMB\n",
		r.System, r.Nodes, tr.Name, tr.NumRequests(), *memMB)
	fmt.Printf("throughput:      %10.0f req/s (measured over %.2f simulated s)\n", r.Throughput, r.SimTime)
	fmt.Printf("completed:       %10d   aborted: %d\n", r.Completed, r.Aborted)
	fmt.Printf("cache miss rate: %10.1f%%\n", r.MissRate*100)
	fmt.Printf("forwarded:       %10.1f%%\n", r.ForwardedFrac*100)
	fmt.Printf("cpu idle:        %10.1f%%  (mean util %.1f%%)\n", r.CPUIdle*100, r.MeanCPUUtil*100)
	fmt.Printf("router util:     %10.1f%%  disk util: %.1f%%\n", r.RouterUtil*100, r.MeanDiskUtil*100)
	fmt.Printf("mean load:       %10.1f connections/node (imbalance %.2f)\n", r.MeanLoad, r.LoadImbalance)
	fmt.Printf("latency:         %10.2f ms mean, %.2f ms p50, %.2f ms p99\n",
		r.LatencyMean*1000, r.LatencyP50*1000, r.LatencyP99*1000)
	fmt.Printf("control msgs:    %10d   events: %d\n", r.ControlMessages, r.Events)
	if r.L2S != nil {
		fmt.Printf("l2s: %d load broadcasts, %d set broadcasts, %d grows, %d shrinks, %.1f%% files replicated\n",
			r.L2S.LoadBroadcasts, r.L2S.SetBroadcasts, r.L2S.SetGrows, r.L2S.SetShrinks,
			r.L2S.ReplicatedFrac*100)
		sizes := make([]int, 0, len(r.L2S.SetSizes))
		for k := range r.L2S.SetSizes {
			sizes = append(sizes, k)
		}
		sort.Ints(sizes)
		fmt.Printf("l2s server-set sizes:")
		for _, k := range sizes {
			fmt.Printf(" %d:%d", k, r.L2S.SetSizes[k])
		}
		fmt.Println()
	}
	if *verbose {
		fmt.Println("per-node cpu utilization:")
		for i, u := range r.PerNodeCPUUtil {
			fmt.Printf("  node %2d: %5.1f%%\n", i, u*100)
		}
	}
}

// writeSeries exports the recorded series to the requested artifact files.
func writeSeries(rec *obs.Series, seriesOut, chromeOut string) error {
	if rec == nil {
		return nil
	}
	write := func(path string, emit func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(seriesOut, rec.WriteJSONL); err != nil {
		return err
	}
	return write(chromeOut, rec.WriteChromeTrace)
}

// compare runs every named policy over the same workload on the parallel
// sweep runner and prints the Section 5 metrics side by side, one row per
// spec as given (two tunings of one policy stay apart). It exits 1 after
// the table if any simulation failed.
func compare(names []string, buildConfig func(string) server.Config, tr *trace.Trace, workers int, memMB int64) {
	jobs := make([]runner.Job, len(names))
	width := len("system")
	for i, n := range names {
		jobs[i] = runner.Job{Key: n, Config: buildConfig(n), Trace: tr}
		width = max(width, len(n))
	}
	start := time.Now()
	results := runner.NewPool(workers).Run(jobs)

	fmt.Printf("comparison on %s (%d requests), %d nodes, %d MB per node\n",
		tr.Name, tr.NumRequests(), jobs[0].Config.Nodes, memMB)
	fmt.Printf("  %-*s %10s %8s %8s %10s %8s %12s %12s %10s\n", width,
		"system", "req/s", "miss%", "fwd%", "imbalance", "idle%", "p50 ms", "ctrl msgs", "gossip")
	failed := 0
	for _, jr := range results {
		if jr.Err != nil {
			fmt.Printf("  %-*s failed: %v\n", width, jr.Key, jr.Err)
			failed++
			continue
		}
		r := jr.Result
		fmt.Printf("  %-*s %10.0f %8.1f %8.1f %10.2f %8.1f %12.2f %12d %10d\n", width,
			jr.Key, r.Throughput, r.MissRate*100, r.ForwardedFrac*100,
			r.LoadImbalance, r.CPUIdle*100, r.LatencyP50*1000,
			r.ControlMessages, r.GossipMessages)
	}
	fmt.Fprintf(os.Stderr, "clustersim: %d simulations in %v\n",
		len(jobs), time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		fatalIf(fmt.Errorf("%d of %d simulations failed", failed, len(jobs)))
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(1)
	}
}

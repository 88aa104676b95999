package server_test

import (
	"fmt"

	"repro/internal/server"
	"repro/internal/trace"
)

// Simulate an L2S cluster over a synthetic workload and read off the
// Section 5 metrics.
func ExampleRun() {
	workload := trace.MustGenerate(trace.GenSpec{
		Name: "example", Files: 400, AvgFileKB: 20, Requests: 20000,
		AvgReqKB: 12, Alpha: 0.9, Seed: 1,
	})

	cfg := server.NewConfig(server.L2SServer, 4)
	result, err := server.Run(cfg, workload)
	if err != nil {
		panic(err)
	}
	fmt.Printf("system: %s on %d nodes\n", result.System, result.Nodes)
	fmt.Printf("measured the post-warm-up 60%% of the trace: %v\n",
		result.Completed >= 12000 && result.Aborted == 0)
	fmt.Printf("forwarded some requests: %v\n", result.ForwardedFrac > 0)
	fmt.Printf("cache misses below 10%%: %v\n", result.MissRate < 0.10)
	// Output:
	// system: l2s on 4 nodes
	// measured the post-warm-up 60% of the trace: true
	// forwarded some requests: true
	// cache misses below 10%: true
}

// The quickstart comparison: on the same 8 nodes with 32 MB each and the
// paper's parameters (T=20, t=10, broadcast on a drift of 4), L2S turns
// the cluster's memories into one cache, where a traditional
// fewest-connections server caches the same popular files on every node.
// This workload's gain is about 4.4x (4785 against 1082 requests/s).
func ExampleRun_quickstart() {
	// 5000 files averaging 25 KB, Zipf popularity, with the popular files
	// smaller than average (requests average 14 KB).
	workload := trace.MustGenerate(trace.GenSpec{
		Name: "quickstart", Files: 5000, AvgFileKB: 25, Requests: 100000,
		AvgReqKB: 14, Alpha: 0.9, LocalityP: 0.3, Seed: 1,
	})
	run := func(sys server.System) server.Result {
		r, err := server.Run(server.NewConfig(sys, 8), workload)
		if err != nil {
			panic(err)
		}
		return r
	}
	l2s, trad := run(server.L2SServer), run(server.Traditional)
	fmt.Printf("l2s misses under 5%%, traditional over 15%%: %v\n", l2s.MissRate < 0.05 && trad.MissRate > 0.15)
	fmt.Printf("l2s serves over 3x the requests/s of traditional: %v\n", l2s.Throughput > 3*trad.Throughput)
	// Output:
	// l2s misses under 5%, traditional over 15%: true
	// l2s serves over 3x the requests/s of traditional: true
}

// Crash one node halfway through the workload: the availability property
// of Section 4. L2S has no single point of failure, so a crashed worker
// costs only the requests in flight there; LARD's front-end is one, and
// once it dies every later request is lost.
func ExampleRun_failover() {
	const nodes, requests = 8, 40000
	workload := trace.MustGenerate(trace.GenSpec{
		Name: "failover", Files: 3000, AvgFileKB: 25, Requests: requests,
		AvgReqKB: 15, Alpha: 0.9, LocalityP: 0.3, Seed: 5,
	})
	run := func(sys server.System, fail int) server.Result {
		cfg := server.NewConfig(sys, nodes)
		cfg.FailNode, cfg.FailAtFrac = fail, 0.5
		r, err := server.Run(cfg, workload)
		if err != nil {
			panic(err)
		}
		return r
	}
	// At most WindowPerNode connections per node are open at any time.
	inFlight := uint64(server.NewConfig(server.L2SServer, nodes).WindowPerNode * nodes)

	fmt.Printf("l2s, no crash: lost %d\n", run(server.L2SServer, -1).Aborted)
	fmt.Printf("l2s, worker 3 crashes: lost only requests in flight: %v\n",
		run(server.L2SServer, 3).Aborted <= inFlight)
	fmt.Printf("lard, back-end 3 crashes: lost only requests in flight: %v\n",
		run(server.LARDServer, 3).Aborted <= inFlight)
	fmt.Printf("lard, front-end crashes: lost every request after the crash: %v\n",
		run(server.LARDServer, 0).Aborted >= requests/2)
	// Output:
	// l2s, no crash: lost 0
	// l2s, worker 3 crashes: lost only requests in flight: true
	// lard, back-end 3 crashes: lost only requests in flight: true
	// lard, front-end crashes: lost every request after the crash: true
}

// A hosting service, the case the paper's introduction motivates: many
// renters' pages make a working set far larger than one node's memory.
// Grow the catalogue on 16 nodes with 32 MB each (a 512 MB cluster cache)
// and compare L2S with the traditional server. L2S gains nothing while
// the catalogue fits one node (0.9x at 1,000 files of 30 KB), gains most
// once it outgrows one node but still fits the cluster cache (5.0x at
// 4,000 files, 7.8x at 16,000) and gains less once it outgrows the
// cluster cache too (3.4x at 48,000 files, 1.4 GB): there L2S misses 19%
// of requests, its disks are 99% busy and it serves 2,656 requests/s
// where it served 7,338.
func ExampleRun_hosting() {
	gain, l2sDisk := map[int]float64{}, map[int]float64{}
	for _, files := range []int{1000, 4000, 16000, 48000} {
		workload := trace.MustGenerate(trace.GenSpec{
			Name: "hosting", Files: files, AvgFileKB: 30, Requests: 150000,
			AvgReqKB: 18, Alpha: 0.8, LocalityP: 0.25, Seed: 9,
		})
		run := func(sys server.System) server.Result {
			r, err := server.Run(server.NewConfig(sys, 16), workload)
			if err != nil {
				panic(err)
			}
			return r
		}
		l2s := run(server.L2SServer)
		gain[files] = l2s.Throughput / run(server.Traditional).Throughput
		l2sDisk[files] = l2s.MeanDiskUtil
	}
	fmt.Printf("fits one node (1,000 files): no gain: %v\n", gain[1000] < 1)
	fmt.Printf("outgrows one node (4,000 files): over 4x: %v\n", gain[4000] > 4)
	fmt.Printf("gain peaks at 16,000 files (0.5 GB): %v\n",
		gain[16000] > gain[4000] && gain[16000] > gain[48000])
	fmt.Printf("outgrows the cluster cache (48,000 files): l2s disk-bound, gain under half the peak: %v\n",
		l2sDisk[48000] > 0.95 && gain[48000] < gain[16000]/2)
	// Output:
	// fits one node (1,000 files): no gain: true
	// outgrows one node (4,000 files): over 4x: true
	// gain peaks at 16,000 files (0.5 GB): true
	// outgrows the cluster cache (48,000 files): l2s disk-bound, gain under half the peak: true
}

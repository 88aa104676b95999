// Hosting: the scenario the paper's introduction motivates — a WWW hosting
// service whose working set (many renters' pages) dwarfs a single node's
// memory. Compares all three servers across working-set sizes and shows
// where locality-conscious distribution pays off most.
//
//	go run ./examples/hosting
package main

import (
	"fmt"
	"log"

	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	const nodes = 16

	fmt.Printf("hosting service on %d nodes, 32 MB cache per node\n", nodes)
	fmt.Printf("%-28s %12s %12s %12s %10s\n",
		"working set", "traditional", "lard", "l2s", "l2s gain")

	// Grow the hosted catalog: from "fits in one memory" to "only the
	// cluster-wide cache can hold it".
	for _, files := range []int{1000, 4000, 16000, 48000} {
		workload, err := trace.Generate(trace.GenSpec{
			Name:      fmt.Sprintf("hosting-%d", files),
			Files:     files,
			AvgFileKB: 30,
			Requests:  150000,
			AvgReqKB:  18,
			Alpha:     0.8, // hosting spreads traffic over many renters
			LocalityP: 0.25,
			Seed:      9,
		})
		if err != nil {
			log.Fatal(err)
		}
		ws := float64(files) * 30 / 1024

		var thr [3]float64
		for i, sys := range []server.System{server.Traditional, server.LARDServer, server.L2SServer} {
			cfg := server.NewConfig(sys, nodes)
			r, err := server.Run(cfg, workload)
			if err != nil {
				log.Fatal(err)
			}
			thr[i] = r.Throughput
		}
		fmt.Printf("%6d files (%5.1f GB)     %9.0f/s %9.0f/s %9.0f/s %9.1fx\n",
			files, ws/1024, thr[0], thr[1], thr[2], thr[2]/thr[0])
	}

	fmt.Println("\nAs the hosted working set outgrows one node's memory, the")
	fmt.Println("traditional server becomes disk-bound while L2S keeps serving")
	fmt.Println("from the cluster-wide cache — the paper's core observation.")

	// The real hosting case: all four of the paper's sites rented onto one
	// cluster. Merging the traces interleaves their request streams and
	// concatenates their catalogs (1.7 GB of content).
	fmt.Println("\nall four paper traces hosted on the same 16-node cluster:")
	var renters []*trace.Trace
	for _, spec := range trace.PaperTraces() {
		renters = append(renters, trace.MustGenerate(spec.Scaled(0.05)))
	}
	merged, err := trace.Merge("all-renters", 1, renters...)
	if err != nil {
		log.Fatal(err)
	}
	ch := trace.Characterize(merged)
	fmt.Printf("  %d files, %.1f GB total, %d requests\n",
		ch.CatalogFiles, ch.CatalogMB/1024, ch.NumRequests)
	for _, sys := range []server.System{server.Traditional, server.LARDServer, server.L2SServer} {
		cfg := server.NewConfig(sys, nodes)
		r, err := server.Run(cfg, merged)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %8.0f req/s  (%.1f%% misses)\n",
			r.System, r.Throughput, r.MissRate*100)
	}
}

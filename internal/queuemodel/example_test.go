package queuemodel_test

import (
	"fmt"

	"repro/internal/queuemodel"
)

// Evaluate the paper's model at one operating point: a 16-node cluster
// serving 8 KB files with an 80% single-node hit rate.
func ExampleParams_Conscious() {
	p := queuemodel.DefaultParams()
	p.AvgFileKB = 8

	oblivious := p.Oblivious(0.8)
	conscious := p.Conscious(0.8)
	fmt.Printf("oblivious: %.0f req/s (%s-bound)\n",
		oblivious.RequestsPerSec, oblivious.Bottleneck)
	fmt.Printf("conscious: %.0f req/s (%s-bound)\n",
		conscious.RequestsPerSec, conscious.Bottleneck)
	fmt.Printf("locality gain: %.1fx\n",
		conscious.RequestsPerSec/oblivious.RequestsPerSec)
	// Output:
	// oblivious: 2778 req/s (disk-bound)
	// conscious: 15699 req/s (cpu-bound)
	// locality gain: 5.7x
}

// The hit-rate algebra of Section 3.1: how much hit rate the cluster-wide
// cache buys over a single node's, and what replication costs.
func ExampleParams_HitRates() {
	p := queuemodel.DefaultParams()
	p.AvgFileKB = 8
	p.Replication = 0.15

	hlc, h := p.HitRates(0.7)
	fmt.Printf("Hlo=0.70 -> Hlc=%.2f, replicated-file hit h=%.2f, forwarded Q=%.2f\n",
		hlc, h, p.ForwardFraction(h))
	// Output:
	// Hlo=0.70 -> Hlc=0.88, replicated-file hit h=0.57, forwarded Q=0.40
}

// Cluster scaling of the locality-conscious bound at an 80% single-node
// hit rate and 32 KB files: the bound grows with the cluster, moving from
// the disk to the CPUs, until the one shared router saturates and adding
// nodes buys nothing.
func ExampleParams_Conscious_scaling() {
	p := queuemodel.DefaultParams()
	p.AvgFileKB = 32
	for _, n := range []int{1, 4, 16, 64, 256} {
		p.Nodes = n
		r := p.Conscious(0.8)
		fmt.Printf("N=%3d: %5.0f req/s (%s-bound)\n", n, r.RequestsPerSec, r.Bottleneck)
	}
	// Output:
	// N=  1:   160 req/s (disk-bound)
	// N=  4:  1333 req/s (cpu-bound)
	// N= 16:  5300 req/s (cpu-bound)
	// N= 64: 15385 req/s (router-bound)
	// N=256: 15385 req/s (router-bound)
}
